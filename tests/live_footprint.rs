//! Allocation footprint of a live cluster: an SC f = 1 node set (the
//! `specs/live_kv.scn` configuration) spawned, one committed `put`, and
//! shut down must request less than 8 MiB from the allocator in total.
//! Node mailboxes hold up to 65,536 messages each, but that capacity is a
//! limit, not storage; mailboxes that preallocated it would request about
//! 64 MiB for the four nodes before ordering anything.
//!
//! The counting allocator is process-global, so this file holds exactly
//! one `#[test]`.

use sofbyz::app::kv::KvOp;
use sofbyz::proto::codec::Encode;
use sofbyz::runtime::spawn_live_kv;
use sofbyz::spec::Spec;
use std::time::Duration;

#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc::new();

const BUDGET: u64 = 8 << 20;

#[test]
fn a_live_sc_cluster_requests_less_than_8_mib() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/specs/live_kv.scn");
    let text = std::fs::read_to_string(path).expect("read specs/live_kv.scn");
    let spec = Spec::parse(&text).expect("specs/live_kv.scn parses");
    let op = KvOp::Put {
        key: b"alice".to_vec(),
        value: b"100".to_vec(),
    }
    .to_bytes();

    let before = alloc_counter::allocated_bytes();
    let mut svc = spawn_live_kv(spec.base.kind, &spec.base.knobs, 1.0);
    let id = svc.submit(op);
    let reply = svc.wait_reply(id, Duration::from_secs(20));
    let run = svc.shutdown();
    let requested = alloc_counter::allocated_bytes() - before;

    assert_eq!(reply.as_deref(), Some(&b"OK"[..]), "the put commits");
    assert_eq!(run.trace.commit_order, vec![id]);
    assert!(
        requested < BUDGET,
        "spawn + one put + shutdown requested {:.1} MiB (budget {} MiB)",
        requested as f64 / (1 << 20) as f64,
        BUDGET >> 20
    );
}
