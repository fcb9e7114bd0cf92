//! Closed-loop benchmark of the FastCap reproduction.
//!
//! Four workloads drive the program's public layer calls — the DES and
//! analytic backends, the capping policies, the FastCap controller, the
//! scenario runner and oracle, and the fleet tree — one client on one
//! thread. Untraced runs give the end-to-end metrics; a traced run records
//! spans around each layer call and gives the per-layer metrics. See
//! `README.md` in this directory.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod measure;
pub mod prof;
pub mod report;
pub mod tally;
pub mod timed;
pub mod workloads;
