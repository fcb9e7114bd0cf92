//! Property tests for the bounded ring buffer: it never drops events
//! while under its configured capacity, and at capacity it drops exactly
//! the oldest ones, keeping the newest `capacity` in order.

use fastcap_trace::{RingBuffer, TraceEvent};
use proptest::prelude::*;

fn push_n(ring: &mut RingBuffer, n: u64) {
    for e in 0..n {
        ring.record(
            e,
            TraceEvent::Control {
                epoch: e,
                kind: "budget_step",
                detail: String::new(),
            },
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn never_drops_below_capacity(capacity in 1usize..512, n in 0u64..1024) {
        let mut ring = RingBuffer::new(capacity);
        push_n(&mut ring, n);
        let held = ring.len() as u64;
        // Everything fits until capacity; after that, drops account for
        // exactly the overflow.
        prop_assert_eq!(held, n.min(capacity as u64));
        prop_assert_eq!(ring.dropped(), n.saturating_sub(capacity as u64));
        if (n as usize) <= capacity {
            prop_assert_eq!(ring.dropped(), 0);
        }
    }

    #[test]
    fn keeps_the_newest_events_in_order(capacity in 1usize..64, n in 0u64..256) {
        let mut ring = RingBuffer::new(capacity);
        push_n(&mut ring, n);
        let first_kept = n.saturating_sub(capacity as u64);
        let stamps: Vec<u64> = ring.iter().map(|s| s.t_ns).collect();
        let want: Vec<u64> = (first_kept..n).collect();
        prop_assert_eq!(stamps, want);
        // Sequence numbers are the global record index, drops included.
        let seqs: Vec<u64> = ring.iter().map(|s| s.seq).collect();
        let want_seq: Vec<u64> = (first_kept..n).collect();
        prop_assert_eq!(seqs, want_seq);
    }
}
