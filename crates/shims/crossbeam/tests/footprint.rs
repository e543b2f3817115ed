//! Footprint of an idle bounded channel: capacity is a limit, not
//! storage, so building a 65,536-slot channel of 256-byte messages must
//! request next to nothing from the allocator. A preallocated ring of
//! that shape requests about 17 MiB.
//!
//! The counting allocator is process-global, so this file holds exactly
//! one `#[test]`.

use crossbeam::channel::{bounded, RecvTimeoutError};
use std::time::Duration;

#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc::new();

#[test]
fn an_idle_bounded_channel_requests_almost_nothing() {
    let before = alloc_counter::allocated_bytes();
    let (tx, rx) = bounded::<[u8; 256]>(65_536);
    let requested = alloc_counter::allocated_bytes() - before;
    assert!(
        requested < 4 * 1024,
        "bounded::<[u8; 256]>(65_536) requested {requested} bytes"
    );

    // Storage arrives with the backlog: one queued message costs a small
    // buffer, still nowhere near the full capacity.
    tx.try_send([7; 256]).expect("an empty channel has room");
    let requested = alloc_counter::allocated_bytes() - before;
    assert!(
        requested < 64 * 1024,
        "one queued message raised the total to {requested} bytes"
    );
    assert_eq!(rx.recv_timeout(Duration::from_secs(1)), Ok([7; 256]));
    drop(tx);
    assert_eq!(
        rx.recv_timeout(Duration::from_millis(1)),
        Err(RecvTimeoutError::Disconnected)
    );
}
