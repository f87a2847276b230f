//! High-level election runners.
//!
//! Convenience wrappers that wire a [`RingSpec`] to the right protocol,
//! drive the simulation to completion, and package the result as an
//! [`ElectionReport`] with the paper's predicted message complexity
//! attached. All the examples, integration tests and the benchmark go
//! through these entry points.
//!
//! One [`RunOptions`] value describes a run: adversary, seed, latency
//! plan, delivery mode, queue backend and budget. `run_alg{1,2,3}_with`
//! take it whole and also return the queue-memory high-water mark; the
//! short `run_alg{1,2,3}` entries run [`RunOptions::new`]'s defaults.

use crate::alg1::Alg1Node;
use crate::alg2::Alg2Node;
use crate::alg3::{Alg3Node, Alg3Output, IdScheme};
use crate::election::{unique_leader, ElectionReport, Role};
use crate::invariants::{Alg2MonitorObserver, CwMonitorObserver, InvariantViolation};
use co_net::{
    Budget, LatencyPlan, Message, Port, Protocol, Pulse, QueueBackend, RingSpec, RunReport,
    SchedulerKind, Simulation,
};

/// How to drive one election.
///
/// Batching and the queue backend never change a report (the contracts of
/// `tests/batch_equivalence.rs` and `tests/backend_equivalence.rs`); they
/// only change how many engine transitions and how many queue bytes the
/// run takes.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Delivery adversary (ignored by replays, which follow their picks).
    pub scheduler: SchedulerKind,
    /// Scheduler seed; only [`SchedulerKind::Random`] reads it.
    pub seed: u64,
    /// Per-channel latency plan (virtual time). The zero plan keeps the
    /// engine's untimed fast path; replays must reuse the recording's plan.
    pub latency: LatencyPlan,
    /// Run-batched macro-stepping.
    pub batch: bool,
    /// Queue storage backend.
    pub backend: QueueBackend,
    /// Step budget.
    pub budget: Budget,
}

impl RunOptions {
    /// `scheduler`/`seed` with every other setting at its default: the zero
    /// latency plan, per-pulse delivery, the `Vec` queue store that
    /// [`Simulation::new`] uses, and [`Budget::default`].
    #[must_use]
    pub fn new(scheduler: SchedulerKind, seed: u64) -> RunOptions {
        RunOptions {
            scheduler,
            seed,
            latency: LatencyPlan::zero(),
            batch: false,
            backend: QueueBackend::default(),
            budget: Budget::default(),
        }
    }
}

/// What a `run_alg*_with` entry returns: the protocol's report plus the
/// high-water mark of queue storage bytes over the whole run.
#[derive(Clone, Debug)]
pub struct RunOutput<R = ElectionReport> {
    /// The protocol's report.
    pub report: R,
    /// Peak queue storage bytes.
    pub peak_queue_bytes: usize,
}

/// Applies `opts`' latency plan and delivery mode to `sim`, then runs it
/// with `run` under `opts`' budget. Every runner entry and the registry's
/// record/replay drivers go through here.
pub(crate) fn drive<M: Message, P: Protocol<M>, R>(
    sim: &mut Simulation<M, P>,
    opts: RunOptions,
    run: impl FnOnce(&mut Simulation<M, P>, Budget) -> R,
) -> R {
    sim.set_latency(opts.latency);
    sim.set_batch(opts.batch);
    run(sim, opts.budget)
}

/// Builds the pulse simulation `opts` describes (scheduler, seed, queue
/// backend) over `nodes` and [`drive`]s it. Takes `opts` by value so a run
/// clones its latency plan at most once.
fn simulate<P: Protocol<Pulse>>(
    spec: &RingSpec,
    nodes: Vec<P>,
    opts: RunOptions,
    run: impl FnOnce(&mut Simulation<Pulse, P>, Budget) -> RunReport,
) -> (Simulation<Pulse, P>, RunReport) {
    let mut sim = Simulation::with_backend(
        spec.wiring(),
        nodes,
        opts.scheduler.build(opts.seed),
        opts.backend,
    );
    let report = drive(&mut sim, opts, run);
    (sim, report)
}

/// Runs Algorithm 1 (stabilizing, oriented) to quiescence.
///
/// The ring may be non-oriented as a wiring, but each node is told its
/// clockwise port — Algorithm 1 is defined for oriented rings.
#[must_use]
pub fn run_alg1(spec: &RingSpec, scheduler: SchedulerKind, seed: u64) -> ElectionReport {
    alg1(spec, RunOptions::new(scheduler, seed)).report
}

/// Runs Algorithm 1 as `opts` describes.
#[must_use]
pub fn run_alg1_with(spec: &RingSpec, opts: &RunOptions) -> RunOutput {
    alg1(spec, opts.clone())
}

/// [`run_alg1_with`] under a latency plan and delivery mode, keeping only
/// the report. The repo benchmark (`perfbench/`) calls this signature.
#[must_use]
pub fn run_alg1_batch(
    spec: &RingSpec,
    scheduler: SchedulerKind,
    seed: u64,
    latency: &LatencyPlan,
    batch: bool,
) -> ElectionReport {
    alg1(spec, batch_options(scheduler, seed, latency, batch)).report
}

/// The `run_alg*_batch` arguments as [`RunOptions`], cloning the plan once.
fn batch_options(
    scheduler: SchedulerKind,
    seed: u64,
    latency: &LatencyPlan,
    batch: bool,
) -> RunOptions {
    RunOptions {
        latency: latency.clone(),
        batch,
        ..RunOptions::new(scheduler, seed)
    }
}

fn alg1(spec: &RingSpec, opts: RunOptions) -> RunOutput {
    let (sim, run) = simulate(spec, alg1_nodes(spec), opts, Simulation::run);
    RunOutput {
        report: alg1_report(spec, &sim, &run),
        peak_queue_bytes: sim.peak_queue_bytes(),
    }
}

/// Runs Algorithm 1 with the Lemma 6–12 monitors checked after every step.
///
/// # Errors
///
/// Returns the first [`InvariantViolation`] observed, if any.
pub fn run_alg1_monitored(
    spec: &RingSpec,
    scheduler: SchedulerKind,
    seed: u64,
) -> Result<ElectionReport, InvariantViolation> {
    let mut observer = CwMonitorObserver::new();
    let (sim, run) = simulate(
        spec,
        alg1_nodes(spec),
        RunOptions::new(scheduler, seed),
        |sim, budget| sim.run_observed(budget, &mut observer),
    );
    observer.finish(sim.nodes())?;
    Ok(alg1_report(spec, &sim, &run))
}

fn alg1_nodes(spec: &RingSpec) -> Vec<Alg1Node> {
    (0..spec.len())
        .map(|i| Alg1Node::new(spec.id(i), spec.cw_port(i)))
        .collect()
}

fn alg1_report(
    spec: &RingSpec,
    sim: &Simulation<Pulse, Alg1Node>,
    run: &RunReport,
) -> ElectionReport {
    let roles = (0..spec.len()).map(|i| sim.node(i).role()).collect();
    report_from(run, roles, Some(spec.len() as u64 * spec.id_max()))
}

/// Runs Algorithm 2 (quiescently terminating, oriented; Theorem 1).
#[must_use]
pub fn run_alg2(spec: &RingSpec, scheduler: SchedulerKind, seed: u64) -> ElectionReport {
    alg2(spec, RunOptions::new(scheduler, seed)).report
}

/// Runs Algorithm 2 as `opts` describes.
#[must_use]
pub fn run_alg2_with(spec: &RingSpec, opts: &RunOptions) -> RunOutput {
    alg2(spec, opts.clone())
}

/// [`run_alg2_with`] under a latency plan and delivery mode, keeping only
/// the report. The repo benchmark (`perfbench/`) calls this signature.
#[must_use]
pub fn run_alg2_batch(
    spec: &RingSpec,
    scheduler: SchedulerKind,
    seed: u64,
    latency: &LatencyPlan,
    batch: bool,
) -> ElectionReport {
    alg2(spec, batch_options(scheduler, seed, latency, batch)).report
}

fn alg2(spec: &RingSpec, opts: RunOptions) -> RunOutput {
    let (sim, run) = simulate(spec, alg2_nodes(spec), opts, Simulation::run);
    RunOutput {
        report: alg2_report(spec, &sim, &run),
        peak_queue_bytes: sim.peak_queue_bytes(),
    }
}

/// Runs Algorithm 2 under an arbitrary (possibly custom) scheduler, with
/// every other setting at its [`RunOptions::new`] default.
#[must_use]
pub fn run_alg2_scheduler(
    spec: &RingSpec,
    scheduler: Box<dyn co_net::Scheduler>,
) -> ElectionReport {
    let mut sim = Simulation::new(spec.wiring(), alg2_nodes(spec), scheduler);
    // `sim` already holds its scheduler, so the options' kind and seed go unused.
    let run = drive(
        &mut sim,
        RunOptions::new(SchedulerKind::Fifo, 0),
        Simulation::run,
    );
    alg2_report(spec, &sim, &run)
}

/// Runs Algorithm 2 with all §3 invariant monitors checked every step.
///
/// # Errors
///
/// Returns the first [`InvariantViolation`] observed, if any.
pub fn run_alg2_monitored(
    spec: &RingSpec,
    scheduler: SchedulerKind,
    seed: u64,
) -> Result<ElectionReport, InvariantViolation> {
    let mut observer = Alg2MonitorObserver::new();
    let (sim, run) = simulate(
        spec,
        alg2_nodes(spec),
        RunOptions::new(scheduler, seed),
        |sim, budget| sim.run_observed(budget, &mut observer),
    );
    observer.finish(sim.nodes())?;
    Ok(alg2_report(spec, &sim, &run))
}

/// Theorem 1's exact complexity for a ring: `n(2·ID_max + 1)`.
#[must_use]
pub fn predicted_alg2(spec: &RingSpec) -> u64 {
    spec.len() as u64 * (2 * spec.id_max() + 1)
}

fn alg2_nodes(spec: &RingSpec) -> Vec<Alg2Node> {
    (0..spec.len())
        .map(|i| Alg2Node::new(spec.id(i), spec.cw_port(i)))
        .collect()
}

fn alg2_report(
    spec: &RingSpec,
    sim: &Simulation<Pulse, Alg2Node>,
    run: &RunReport,
) -> ElectionReport {
    let roles = (0..spec.len()).map(|i| sim.node(i).role()).collect();
    report_from(run, roles, Some(predicted_alg2(spec)))
}

/// Result of an Algorithm 3 run: election report plus orientation data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Alg3Report {
    /// The election outcome.
    pub report: ElectionReport,
    /// Each node's claimed clockwise port (position order); `None` if the
    /// node never reached the output guard.
    pub cw_ports: Vec<Option<Port>>,
    /// Whether the orientation claims form one consistent global walk.
    pub orientation_consistent: bool,
}

/// Runs Algorithm 3 on a (possibly non-oriented) ring to quiescence.
#[must_use]
pub fn run_alg3(
    spec: &RingSpec,
    scheme: IdScheme,
    scheduler: SchedulerKind,
    seed: u64,
) -> Alg3Report {
    alg3(spec, scheme, RunOptions::new(scheduler, seed)).report
}

/// Runs Algorithm 3 as `opts` describes.
#[must_use]
pub fn run_alg3_with(
    spec: &RingSpec,
    scheme: IdScheme,
    opts: &RunOptions,
) -> RunOutput<Alg3Report> {
    alg3(spec, scheme, opts.clone())
}

fn alg3(spec: &RingSpec, scheme: IdScheme, opts: RunOptions) -> RunOutput<Alg3Report> {
    let nodes = (0..spec.len())
        .map(|i| Alg3Node::new(spec.id(i), scheme))
        .collect();
    let (sim, run) = simulate(spec, nodes, opts, Simulation::run);
    RunOutput {
        report: alg3_report(spec, scheme, &sim, &run),
        peak_queue_bytes: sim.peak_queue_bytes(),
    }
}

/// Runs Algorithm 3 with Proposition 19 ID resampling enabled.
///
/// Returns the report plus each node's final (resampled) ID.
#[must_use]
pub fn run_alg3_resampling(
    spec: &RingSpec,
    scheme: IdScheme,
    scheduler: SchedulerKind,
    seed: u64,
) -> (Alg3Report, Vec<u64>) {
    let nodes = (0..spec.len())
        .map(|i| Alg3Node::with_resampling(spec.id(i), scheme, seed ^ (i as u64) << 32 | i as u64))
        .collect();
    let (sim, run) = simulate(
        spec,
        nodes,
        RunOptions::new(scheduler, seed),
        Simulation::run,
    );
    let final_ids: Vec<u64> = (0..spec.len()).map(|i| sim.node(i).id()).collect();
    (alg3_report(spec, scheme, &sim, &run), final_ids)
}

fn alg3_report(
    spec: &RingSpec,
    scheme: IdScheme,
    sim: &Simulation<Pulse, Alg3Node>,
    run: &RunReport,
) -> Alg3Report {
    let outputs: Vec<Option<Alg3Output>> = (0..spec.len()).map(|i| sim.node(i).output()).collect();
    let roles: Vec<Role> = outputs
        .iter()
        .map(|o| o.map_or(Role::NonLeader, |o| o.role))
        .collect();
    let cw_ports: Vec<Option<Port>> = outputs.iter().map(|o| o.map(|o| o.cw_port)).collect();
    let decided = outputs.iter().all(Option::is_some);
    let all_cw = decided && (0..spec.len()).all(|i| cw_ports[i] == Some(spec.cw_port(i)));
    let all_ccw = decided && (0..spec.len()).all(|i| cw_ports[i] == Some(spec.ccw_port(i)));
    let report = report_from(
        run,
        roles,
        Some(scheme.predicted_messages(spec.len() as u64, spec.id_max())),
    );
    Alg3Report {
        report,
        cw_ports,
        orientation_consistent: all_cw || all_ccw,
    }
}

fn report_from(run: &RunReport, roles: Vec<Role>, predicted: Option<u64>) -> ElectionReport {
    ElectionReport {
        outcome: run.outcome,
        total_messages: run.total_sent,
        steps: run.steps,
        leader: unique_leader(&roles),
        roles,
        predicted_messages: predicted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::IdAssignment;
    use co_net::Outcome;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn run_alg1_stabilizes_and_predicts() {
        let spec = RingSpec::oriented(vec![2, 6, 3]);
        let report = run_alg1(&spec, SchedulerKind::Fifo, 0);
        assert_eq!(report.outcome, Outcome::Quiescent);
        assert_eq!(report.leader, Some(1));
        assert_eq!(report.total_messages, report.predicted_messages.unwrap());
        report.validate(&spec).expect("valid election");
    }

    #[test]
    fn run_alg2_terminates_and_predicts() {
        let spec = RingSpec::oriented(vec![2, 6, 3]);
        let report = run_alg2(&spec, SchedulerKind::Random, 11);
        assert!(report.quiescently_terminated());
        assert_eq!(report.total_messages, 3 * 13);
        assert_eq!(report.predicted_messages, Some(39));
        report.validate(&spec).expect("valid election");
    }

    #[test]
    fn monitored_runs_pass_over_scheduler_family() {
        let mut rng = StdRng::seed_from_u64(4);
        for n in [1usize, 2, 3, 5, 9] {
            let ids = IdAssignment::Shuffled.generate(n, &mut rng);
            let spec = RingSpec::oriented(ids);
            for kind in SchedulerKind::ALL {
                run_alg1_monitored(&spec, kind, 17).expect("Alg1 invariants");
                let report = run_alg2_monitored(&spec, kind, 17).expect("Alg2 invariants");
                report.validate(&spec).expect("valid election");
            }
        }
    }

    #[test]
    fn run_alg3_reports_orientation() {
        let spec = RingSpec::with_flips(vec![3, 8, 1, 5], vec![true, false, false, true]);
        let out = run_alg3(&spec, IdScheme::Improved, SchedulerKind::Random, 2);
        assert!(out.report.reached_quiescence());
        assert!(out.orientation_consistent);
        assert_eq!(out.report.leader, Some(1));
        assert_eq!(out.report.total_messages, 4 * 17);
    }

    #[test]
    fn custom_scheduler_entry_point() {
        use co_net::sched::BoundedDelayScheduler;
        // Partial synchrony is just another adversary: Theorem 1 unchanged.
        let spec = RingSpec::oriented(vec![4, 7, 2, 5]);
        for bound in [0u64, 1, 5, 50] {
            let report = run_alg2_scheduler(&spec, Box::new(BoundedDelayScheduler::new(bound, 3)));
            assert!(report.quiescently_terminated(), "bound {bound}");
            assert_eq!(report.leader, Some(1), "bound {bound}");
            assert_eq!(report.total_messages, 4 * (2 * 7 + 1), "bound {bound}");
        }
    }

    #[test]
    fn with_entries_agree_with_defaults_across_options() {
        use co_net::LatencyModel;
        let spec = RingSpec::oriented(vec![2, 6, 3, 5]);
        let registry = crate::registry::core_registry();
        let latencies = [
            LatencyPlan::zero(),
            LatencyPlan::new(LatencyModel::Uniform { min: 1, max: 9 }, 7),
        ];
        for kind in SchedulerKind::ALL
            .into_iter()
            .chain([SchedulerKind::Latency])
        {
            let plain1 = run_alg1(&spec, kind, 9);
            let plain2 = run_alg2(&spec, kind, 9);
            let plain3 = run_alg3(&spec, IdScheme::Improved, kind, 9);
            for backend in QueueBackend::ALL {
                for batch in [false, true] {
                    for latency in &latencies {
                        let opts = RunOptions {
                            latency: latency.clone(),
                            batch,
                            backend,
                            ..RunOptions::new(kind, 9)
                        };
                        let out1 = run_alg1_with(&spec, &opts);
                        let out2 = run_alg2_with(&spec, &opts);
                        let out3 = run_alg3_with(&spec, IdScheme::Improved, &opts);
                        assert_eq!(out1.report, plain1, "{opts:?}");
                        assert_eq!(out2.report, plain2, "{opts:?}");
                        assert_eq!(out3.report, plain3, "{opts:?}");
                        for (name, out) in [
                            ("alg1", &out1.report),
                            ("alg2", &out2.report),
                            ("alg3", &out3.report.report),
                        ] {
                            // The registry's record driver, given the same
                            // options, runs the very same election.
                            let rec = registry.get(name).unwrap().record(&spec, &opts).report;
                            assert_eq!(
                                rec,
                                RunReport {
                                    outcome: out.outcome,
                                    total_sent: out.total_messages,
                                    steps: out.steps,
                                    in_flight: 0,
                                },
                                "{name} {opts:?}"
                            );
                        }
                        for peak in [
                            out1.peak_queue_bytes,
                            out2.peak_queue_bytes,
                            out3.peak_queue_bytes,
                        ] {
                            assert!(peak > 0, "{opts:?}: queues were used");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn resampling_returns_final_ids() {
        let spec = RingSpec::oriented(vec![2, 2, 7, 2]);
        let (out, ids) = run_alg3_resampling(&spec, IdScheme::Improved, SchedulerKind::Fifo, 3);
        assert!(out.report.reached_quiescence());
        assert_eq!(ids.len(), 4);
        assert_eq!(ids[2], 7, "the max node keeps its ID");
        assert!(ids.iter().all(|&id| id >= 1));
    }
}
