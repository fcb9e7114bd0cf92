//! # fastcap-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! FastCap evaluation (ISPASS 2016, Sec. IV). See DESIGN.md §3 for the
//! experiment index and EXPERIMENTS.md for paper-vs-measured shapes.
//!
//! The entry point is the `repro` binary — `cargo run -p fastcap-bench
//! --release --bin repro -- <artifact|all> [--quick] [--seed N] [--jobs N]
//! [--out DIR]`. Its timing columns are modeled cost ([`costmodel`]), so
//! every artifact is byte-deterministic. Host time is measured in one
//! place only: the `perfbench` package (`perfbench/`), end to end and per
//! layer (DESIGN.md §10.4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod costmodel;
pub mod experiments;
pub mod explain;
pub mod fleet_support;
pub mod harness;
pub mod sweep;
pub mod table;

pub use harness::{Opts, PolicyKind};
pub use sweep::{PointCtx, Sweep};
pub use table::ResultTable;
