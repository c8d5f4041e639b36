//! Allocation pin for the closed-loop plant step.
//!
//! Every closed-loop period runs `RunCursor::advance`: the forecast
//! window, the controller's plant step, the Eq. 5 aging integrator and
//! the step event. After the first period none of that may touch the
//! heap — the cursor lends the controller a slice of the trace, or near
//! the end of the route a zero-padded buffer it owns and reuses, and the
//! reactive plants keep their state inline. This pins
//! zero allocations per step for the `Parallel`, `ActiveCooling` and
//! `Dual` baselines on a route with discharge, regeneration and an
//! infeasible peak, across the end of the route where the window pads
//! with zeros.
//!
//! This file holds a single `#[test]` on purpose: the counting global
//! allocator below is process-wide, and a sibling test running
//! concurrently would pollute the counts (same discipline as
//! `tests/telemetry_parity.rs`).

use otem_repro::control::policy::{ActiveCooling, Dual, Parallel};
use otem_repro::control::{Controller, Simulator, SystemConfig};
use otem_repro::drivecycle::PowerTrace;
use otem_repro::telemetry::NullSink;
use otem_repro::units::{Seconds, Watts};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation (and reallocation) made by the process.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// A 150 s route: sustained discharge, regeneration, idle, and a 2 MW
/// spike past every pack's peak (the infeasible → 99.9 %-of-peak
/// fallback). Its last 64 steps see zero-padded forecast windows.
fn route() -> PowerTrace {
    let samples = (0..150)
        .map(|k| match k % 10 {
            0..=5 => Watts::new(20_000.0 + 5_000.0 * (k % 4) as f64),
            6 | 7 => Watts::new(-15_000.0),
            8 => Watts::ZERO,
            _ if k == 99 => Watts::new(2.0e6),
            _ => Watts::new(60_000.0),
        })
        .collect();
    PowerTrace::new(Seconds::new(1.0), samples)
}

/// Allocations made by every `advance` after the first on `controller`.
fn steady_allocs(
    controller: &mut dyn Controller,
    trace: &PowerTrace,
    config: &SystemConfig,
) -> u64 {
    let sim = Simulator::new(config);
    let mut cursor = sim.cursor();
    let mut steps = 0usize;
    assert!(cursor.advance(controller, trace, &NullSink, |_, _| steps += 1));
    let before = allocations();
    while cursor.advance(controller, trace, &NullSink, |_, _| steps += 1) {}
    let after = allocations();
    assert_eq!(steps, trace.len(), "the cursor ran the whole route");
    after - before
}

#[test]
fn closed_loop_step_makes_no_heap_allocation_after_the_first_period() {
    let config = SystemConfig::default();
    let trace = route();
    let controllers: [(&str, Box<dyn Controller>); 3] = [
        ("Parallel", Box::new(Parallel::new(&config).expect("valid"))),
        (
            "ActiveCooling",
            Box::new(ActiveCooling::new(&config).expect("valid")),
        ),
        ("Dual", Box::new(Dual::new(&config).expect("valid"))),
    ];
    for (name, mut controller) in controllers {
        let allocs = steady_allocs(controller.as_mut(), &trace, &config);
        assert_eq!(
            allocs,
            0,
            "{name}: {allocs} heap allocations over {} steps",
            trace.len() - 1
        );
    }
}
