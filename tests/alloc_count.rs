//! Heap allocations per trial do not depend on the trial's length.
//!
//! A trial's packets live in pool slots that recycle, arrive as events
//! that carry the slot handle inline, and are built from cached frame
//! templates — so once the machine is built, forwarding a packet calls
//! the allocator zero times, and a five-times-longer trial makes exactly
//! as many `alloc` calls as a short one. (Vectors that grow with the
//! trial — the arrival schedule, telemetry samples — are one `alloc`
//! each however long they get; growth is `realloc`, which is not
//! counted.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use livelock_core::poller::Quota;
use livelock_kernel::config::{ClassifyConfig, KernelConfig};
use livelock_kernel::experiment::{run_trial, TrialSpec};
use livelock_kernel::telemetry::ObserveConfig;
use livelock_net::classify::{MatchRule, TrafficClass};

thread_local! {
    // Per thread, so tests running side by side do not count each
    // other's allocations. `const` initialisation: touching the counter
    // from inside the allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a plain thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the allocator also runs while a thread's locals
        // are being torn down.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's obligations for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `alloc` calls one `run_trial` of `n_packets` makes on this thread.
fn allocs_for(
    config: &KernelConfig,
    rate_pps: f64,
    flows: Option<Vec<u16>>,
    n_packets: usize,
) -> u64 {
    let spec = TrialSpec {
        rate_pps,
        n_packets,
        flows,
        ..TrialSpec::new(config.clone())
    };
    let before = ALLOCS.with(Cell::get);
    let result = run_trial(&spec);
    let after = ALLOCS.with(Cell::get);
    assert_eq!(
        result.pool.misses, 0,
        "{n_packets} packets: pool sized by config"
    );
    assert!(
        result.transmitted > 0,
        "{n_packets} packets: the trial forwarded"
    );
    after - before
}

fn assert_length_independent(config: KernelConfig, rate_pps: f64, flows: Option<Vec<u16>>) {
    let short = allocs_for(&config, rate_pps, flows.clone(), 10_000);
    let long = allocs_for(&config, rate_pps, flows, 50_000);
    assert_eq!(
        short, long,
        "10 000 packets made {short} alloc calls, 50 000 made {long}"
    );
}

#[test]
fn single_flow_unmodified() {
    assert_length_independent(KernelConfig::builder().build(), 12_000.0, None);
}

#[test]
fn polled_screend_feedback() {
    let config = KernelConfig::builder()
        .polled(Quota::Limited(10))
        .screend(Default::default())
        .feedback(Default::default())
        .build();
    assert_length_independent(config, 12_000.0, None);
}

#[test]
fn smp_64_flows_with_stealing() {
    let config = KernelConfig::builder()
        .polled(Quota::Limited(10))
        .ncpus(4)
        .steal(true)
        .build();
    let flows = (0..64).map(|i| 7_000 + i).collect();
    assert_length_independent(config, 40_000.0, Some(flows));
}

#[test]
fn observed_and_classified() {
    let config = KernelConfig::builder()
        .polled(Quota::Limited(10))
        .screend(Default::default())
        .feedback(Default::default())
        .observe(ObserveConfig)
        .classes(ClassifyConfig {
            rules: vec![
                MatchRule::src_port(7_000, TrafficClass::Control),
                MatchRule::src_port(7_100, TrafficClass::Realtime),
            ],
            ..ClassifyConfig::default()
        })
        .build();
    let flows = vec![7_000, 7_100, 7_200, 7_201, 7_202, 7_203, 7_204, 7_205];
    assert_length_independent(config, 12_000.0, Some(flows));
}
