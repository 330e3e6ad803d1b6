//! Integration: the process-wide tracking allocator, installed for real in
//! this test binary (a library crate must not impose a global allocator,
//! so this is the one place it can be exercised end to end).

use memtrack::alloc::{
    global_allocation_count, global_current, global_peak, global_total_allocated, reset_peak,
};
use memtrack::TrackingAllocator;
use std::sync::{Mutex, MutexGuard};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

/// The counters are process-wide and the harness runs tests on parallel
/// threads, so another test's `reset_peak` or its multi-MiB solver heap
/// would land between one test's readings. Each test holds this lock while
/// it measures.
static MEASURING: Mutex<()> = Mutex::new(());

fn measuring() -> MutexGuard<'static, ()> {
    MEASURING
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Bytes freed process-wide between two readings of the counters: live
/// bytes change by what was allocated minus what was freed, and the
/// allocated total only grows. Exact even while the harness thread frees
/// or allocates its own small buffers between the readings.
fn freed_between(before: (u64, u64), after: (u64, u64)) -> i64 {
    let allocated = (after.0 - before.0) as i64;
    let live = after.1 as i64 - before.1 as i64;
    allocated - live
}

fn counters() -> (u64, u64) {
    (global_total_allocated(), global_current())
}

#[test]
fn real_allocations_move_the_counters() {
    let _serial = measuring();
    let count0 = global_allocation_count();
    let before = counters();
    let buf: Vec<u8> = Vec::with_capacity(1 << 20);
    let held = counters();
    assert!(
        held.0 >= before.0 + (1 << 20),
        "1 MiB allocation must be visible"
    );
    assert!(
        freed_between(before, held) < 1 << 20,
        "live bytes must include the allocation"
    );
    assert!(global_allocation_count() > count0);
    drop(buf);
    assert!(
        freed_between(held, counters()) >= 1 << 20,
        "drop must credit back"
    );
}

#[test]
fn peak_captures_a_transient_high_water_mark() {
    let _serial = measuring();
    reset_peak();
    let during = {
        let _spike: Vec<u8> = vec![0; 4 << 20];
        let during = global_current();
        assert!(during >= 4 << 20);
        assert!(global_peak() >= during);
        during
    };
    // The spike is gone but the peak remains.
    assert!(global_peak() >= during);
    assert!(global_current() < global_peak());
}

#[test]
fn solver_heap_usage_is_observable_process_wide() {
    use commsim::{run_ranks, MachineModel};
    use sem::cases::{pb146, CaseParams};

    let _serial = measuring();
    reset_peak();
    let before = global_peak();
    run_ranks(2, MachineModel::test_tiny(), |comm| {
        let mut params = CaseParams::pb146_default();
        params.elems = [3, 3, 4];
        params.order = 3;
        let mut solver = pb146(&params, 8).build(comm);
        solver.step(comm);
    });
    let grown = global_peak() - before;
    // 2 ranks × ~70 elements × 64 nodes × many f64 fields: hundreds of KB
    // (tests run concurrently, so `before` may already sit above the quiet
    // baseline — keep the bound conservative).
    assert!(
        grown > 400 << 10,
        "solver run must raise the real heap peak (grew {grown} B)"
    );
}
