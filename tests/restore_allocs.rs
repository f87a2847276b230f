//! Allocation regression for exploration's branching step: restoring a
//! snapshot into a simulation that has stepped away from it works in place.
//!
//! Its own test binary, because it installs a counting global allocator.
//! Counts are per thread, so concurrently running tests cannot disturb
//! them.

use content_oblivious::core::Alg2Node;
use content_oblivious::net::sched::FifoScheduler;
use content_oblivious::net::{Pulse, QueueBackend, RingSpec, Simulation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations made by the current thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot may already be gone while the thread exits.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a const-initialised thread-local `Cell` that
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn restore_allocates_at_most_once() {
    const RESTORES: u64 = 1_000;
    for n in [4u64, 8, 16] {
        let spec = RingSpec::oriented((1..=n).collect());
        let nodes = (0..spec.len())
            .map(|i| Alg2Node::new(spec.id(i), spec.cw_port(i)))
            .collect();
        let mut sim: Simulation<Pulse, Alg2Node> = Simulation::with_backend(
            spec.wiring(),
            nodes,
            Box::new(FifoScheduler::new()),
            QueueBackend::Counter,
        );
        sim.start();
        for _ in 0..n {
            sim.step().expect("the election is still running");
        }
        let snap = sim.snapshot();
        let fp = sim.fingerprint();
        let channels = sim.ready_channels();
        assert!(channels.len() > 1, "n={n}: the snapshot should branch");

        for i in 0..RESTORES {
            // Step away along a varying channel, then branch back.
            let channel = channels[i as usize % channels.len()];
            sim.step_channel(channel)
                .expect("ready channel has a message");
            let before = allocs();
            sim.restore(&snap);
            let during = allocs() - before;
            assert!(during <= 1, "n={n}: restore {i} made {during} allocations");
            assert_eq!(
                sim.fingerprint(),
                fp,
                "n={n}: restore {i} changed the configuration"
            );
        }
    }
}
