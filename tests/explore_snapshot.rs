//! Acceptance for the snapshot-based explorer: against the reference
//! tuple-keyed explorer it must visit the *same* state space in *less*
//! dedup memory, and under an equal byte budget it must reach strictly
//! more configurations. Also: the in-place restore the explorer branches
//! with is indistinguishable from a restore into a fresh simulation.

use content_oblivious::core::{Alg2Node, Role};
use content_oblivious::net::explore::{explore, explore_reference, ExploreLimits, ExploreState};
use content_oblivious::net::sched::FifoScheduler;
use content_oblivious::net::{
    Budget, ChannelId, Protocol, Pulse, QueueBackend, RingSpec, RunReport, SimStats, Simulation,
};

type Key = (u64, u64, u64, u64, u64, bool, bool);

fn reference_key(node: &Alg2Node) -> Key {
    (
        node.rho_cw(),
        node.sigma_cw(),
        node.rho_ccw(),
        node.sigma_ccw(),
        node.deferred_ccw(),
        node.role() == Role::Leader,
        node.is_terminated(),
    )
}

fn make_nodes(spec: &RingSpec) -> Vec<Alg2Node> {
    (0..spec.len())
        .map(|i| Alg2Node::new(spec.id(i), spec.cw_port(i)))
        .collect()
}

fn no_check(_: &ExploreState<Alg2Node>) -> Result<(), String> {
    Ok(())
}

#[test]
fn snapshot_explorer_covers_the_same_space_in_fewer_bytes() {
    for ids in [vec![1u64, 2], vec![3, 1], vec![1, 2, 3], vec![2, 3, 1]] {
        let spec = RingSpec::oriented(ids.clone());
        let snap = explore(
            &spec.wiring(),
            || make_nodes(&spec),
            no_check,
            no_check,
            ExploreLimits::default(),
        );
        let reference = explore_reference(
            &spec.wiring(),
            || make_nodes(&spec),
            reference_key,
            no_check,
            no_check,
            ExploreLimits::default(),
        );
        assert!(snap.complete && reference.complete, "{ids:?}");
        assert_eq!(
            snap.configs, reference.configs,
            "{ids:?}: explorers disagree on the state space"
        );
        assert_eq!(
            snap.quiescent_configs, reference.quiescent_configs,
            "{ids:?}: quiescent counts disagree"
        );
        assert!(
            snap.visited_bytes < reference.visited_bytes,
            "{ids:?}: fingerprint index ({} B) not smaller than the reference ({} B)",
            snap.visited_bytes,
            reference.visited_bytes
        );
    }
}

#[test]
fn equal_byte_budget_gives_the_snapshot_explorer_more_reach() {
    // Size the budget to exactly fit the snapshot explorer's full index. The
    // reference explorer — paying for whole state tuples per config — must
    // run out of memory first and cover strictly fewer configurations.
    let spec = RingSpec::oriented(vec![1, 2, 3]);
    let full = explore(
        &spec.wiring(),
        || make_nodes(&spec),
        no_check,
        no_check,
        ExploreLimits::default(),
    );
    assert!(full.complete);

    let budget = ExploreLimits {
        max_state_bytes: full.visited_bytes,
        ..ExploreLimits::default()
    };
    let snap = explore(
        &spec.wiring(),
        || make_nodes(&spec),
        no_check,
        no_check,
        budget,
    );
    let reference = explore_reference(
        &spec.wiring(),
        || make_nodes(&spec),
        reference_key,
        no_check,
        no_check,
        budget,
    );
    assert!(
        snap.complete,
        "snapshot explorer should finish inside its own footprint"
    );
    assert!(
        !reference.complete,
        "reference explorer should exhaust the byte budget"
    );
    assert!(
        reference.configs < snap.configs,
        "reference reached {} configs, snapshot {}",
        reference.configs,
        snap.configs
    );
}

#[test]
fn theorem1_still_checked_through_the_snapshot_explorer() {
    // The rewritten explorer must still catch violations: verify Theorem 1's
    // exact count at every quiescent configuration, and confirm a falsified
    // predicate is reported.
    let spec = RingSpec::oriented(vec![2, 1, 3]);
    let predicted = spec.len() as u64 * (2 * spec.id_max() + 1);
    let report = explore(
        &spec.wiring(),
        || make_nodes(&spec),
        no_check,
        |state| {
            if state.sent == predicted {
                Ok(())
            } else {
                Err(format!("sent {} ≠ {predicted}", state.sent))
            }
        },
        ExploreLimits::default(),
    );
    assert!(report.complete);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(report.quiescent_configs >= 1);

    let falsified = explore(
        &spec.wiring(),
        || make_nodes(&spec),
        no_check,
        |_| Err("always wrong".into()),
        ExploreLimits::default(),
    );
    assert!(!falsified.violations.is_empty());
}

fn alg2_after(spec: &RingSpec, backend: QueueBackend, steps: usize) -> Simulation<Pulse, Alg2Node> {
    let mut sim = Simulation::with_backend(
        spec.wiring(),
        make_nodes(spec),
        Box::new(FifoScheduler::new()),
        backend,
    );
    sim.start();
    for _ in 0..steps {
        sim.step().expect("the election is still running");
    }
    sim
}

/// What a restored simulation shows: counters, queue lengths, peak queue
/// bytes and fingerprint, then the FIFO continuation to quiescence.
type Observed = (SimStats, Vec<usize>, usize, u64, RunReport, SimStats, u64);

fn observe(sim: &mut Simulation<Pulse, Alg2Node>) -> Observed {
    let stats = sim.stats().clone();
    let lens = (0..2 * sim.wiring().len())
        .map(|ch| sim.queue_len(ChannelId::from_index(ch)))
        .collect();
    let (peak, fp) = (sim.peak_queue_bytes(), sim.fingerprint());
    let report = sim.run(Budget::steps(1_000_000));
    (
        stats,
        lens,
        peak,
        fp,
        report,
        sim.stats().clone(),
        sim.fingerprint(),
    )
}

#[test]
fn in_place_restore_matches_a_fresh_restore() {
    let spec = RingSpec::oriented(vec![3, 1, 4, 2, 5]);
    for backend in QueueBackend::ALL {
        let snap = alg2_after(&spec, backend, 12).snapshot();
        let mut fresh = alg2_after(&spec, backend, 0);
        fresh.restore(&snap);
        let expected = observe(&mut fresh);
        assert!(
            expected.4.steps > 0,
            "{backend}: snapshot must not be quiescent"
        );

        // Run further: to quiescence, then an injected burst spread over
        // every channel (longer run lists, larger counters than the
        // snapshot's).
        let mut further = alg2_after(&spec, backend, 0);
        further.run(Budget::steps(1_000_000));
        for i in 0..60 {
            further.inject(ChannelId::from_index(i % 10), Pulse);
        }
        // Run less far: a few steps only.
        let behind = alg2_after(&spec, backend, 3);
        for (label, mut sim) in [("further", further), ("behind", behind)] {
            sim.restore(&snap);
            assert_eq!(
                observe(&mut sim),
                expected,
                "{backend}: restore into {label}"
            );
        }
    }
}
