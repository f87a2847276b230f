//! `ring`: a seeded sequence of single-ring elections — the `elect`,
//! `stabilize` and `orient` path of `co-ring`, per-pulse delivery.
//!
//! Elections come in blocks of 24 that cycle Alg1, Alg2, Alg3. Within a
//! block each protocol gets every one of the eight adversarial
//! `SchedulerKind`s once and one ring size from each of eight strata of
//! `64..=384` (see [`size`]), with `n` distinct IDs drawn from `1..=4n`;
//! two of the eight Alg1 and two of the eight Alg2 elections (one in four)
//! instead run under a seeded `uniform:1..9` latency plan with the
//! `latency` scheduler. Which scheduler gets which stratum, and which two
//! run under latency, rotate with the block and not with the seed, so the
//! size and scheduler mix of a run does not depend on the seed (a
//! scheduler's cost per pulse differs by up to 3x); the pulse count of an
//! election is fixed by `n` and the largest ID (Theorem 1), which is close
//! to `4n` for any seed. The seed draws the IDs, the orientations, the
//! scheduler and latency seeds and the order of a block.
//!
//! A run times the same [`BLOCKS`] blocks over and over, and an election's
//! latency is the median of its repeats: a shared host's speed can drift by
//! tens of percent within seconds, and a repeat a whole pass later rarely
//! falls in the same slow spell. Time goes to the event engine and the scheduler;
//! there is no snapshot, dedup or fleet work.

use crate::trace::Tracer;
use crate::{engine_layers, fail, medians, Ctx, Layers, Measured};
use co_core::runner;
use co_core::{ElectionReport, IdScheme};
use co_net::prof;
use co_net::{LatencyModel, LatencyPlan, RingSpec, SchedulerKind};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Size strata per protocol in a block.
const STRATA: usize = 8;
/// Blocks in a pass: 120 distinct elections, so their p90 has twelve
/// beyond it.
const BLOCKS: u64 = 5;

/// Ring size of stratum `s` in block `b`: the strata start 40 apart from 64,
/// and block `b` offsets them all by `13·b mod 41`, so the sizes of
/// successive blocks fill `64..=384` evenly. Election times then have no
/// gaps for a median to fall into.
fn size(s: usize, b: u64) -> usize {
    64 + 40 * s + (b.wrapping_mul(13) % 41) as usize
}

#[derive(Copy, Clone, Debug)]
enum Protocol {
    Alg1,
    Alg2,
    Alg3,
}

pub struct Election {
    protocol: Protocol,
    spec: RingSpec,
    scheduler: SchedulerKind,
    sched_seed: u64,
    latency: LatencyPlan,
}

pub struct Plan {
    elections: Vec<Election>,
}

/// Size of the warm-up rings: one election per protocol.
const WARM_N: usize = 192;

fn block_rng(seed: u64, block: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ block.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `n` distinct IDs drawn from `1..=4n`, in seeded order.
fn ids(n: usize, rng: &mut StdRng) -> Vec<u64> {
    let mut pool: Vec<u64> = (1..=4 * n as u64).collect();
    pool.shuffle(rng);
    pool.truncate(n);
    pool
}

/// Block `b` of the election sequence for `seed`.
fn block(seed: u64, b: u64) -> Vec<Election> {
    let mut rng = block_rng(seed, b);
    let mut per_protocol: Vec<Vec<Election>> = Vec::new();
    for protocol in [Protocol::Alg1, Protocol::Alg2, Protocol::Alg3] {
        let mut elections = Vec::with_capacity(STRATA);
        for (k, &kind) in SchedulerKind::ALL.iter().enumerate() {
            let ids = ids(size((k + b as usize) % STRATA, b), &mut rng);
            let spec = match protocol {
                Protocol::Alg3 => RingSpec::random_flips(ids, &mut rng),
                _ => RingSpec::oriented(ids),
            };
            // Two of eight, rotating through schedulers and sizes.
            let timed = !matches!(protocol, Protocol::Alg3) && k % 4 == (b / 2 % 4) as usize;
            let (scheduler, latency) = if timed {
                let model = LatencyModel::Uniform { min: 1, max: 9 };
                (SchedulerKind::Latency, LatencyPlan::new(model, rng.gen()))
            } else {
                (kind, LatencyPlan::zero())
            };
            elections.push(Election {
                protocol,
                spec,
                scheduler,
                sched_seed: rng.gen(),
                latency,
            });
        }
        elections.shuffle(&mut rng);
        per_protocol.push(elections);
    }
    // Cycle the protocols: Alg1, Alg2, Alg3, Alg1, ...
    let mut out = Vec::with_capacity(3 * STRATA);
    let mut iters: Vec<_> = per_protocol.into_iter().map(Vec::into_iter).collect();
    for _ in 0..STRATA {
        for it in &mut iters {
            out.extend(it.next());
        }
    }
    out
}

/// Runs one election through the `co-ring` runner entry points.
fn elect(e: &Election) -> (ElectionReport, bool) {
    match e.protocol {
        Protocol::Alg1 => (
            runner::run_alg1_batch(&e.spec, e.scheduler, e.sched_seed, &e.latency, false),
            true,
        ),
        Protocol::Alg2 => (
            runner::run_alg2_batch(&e.spec, e.scheduler, e.sched_seed, &e.latency, false),
            true,
        ),
        Protocol::Alg3 => {
            let out = runner::run_alg3(&e.spec, IdScheme::Improved, e.scheduler, e.sched_seed);
            (out.report, out.orientation_consistent)
        }
    }
}

/// The output checks: the maximum-ID node is the unique leader, the run
/// quiesced (Alg2 also terminated), the pulse count equals the paper's
/// exact prediction, and Alg3's orientation is consistent.
fn check(e: &Election, report: &ElectionReport, oriented: bool) -> Result<(), String> {
    let what = || {
        format!(
            "{:?} n={} {} seed {}",
            e.protocol,
            e.spec.len(),
            e.scheduler,
            e.sched_seed
        )
    };
    report
        .validate(&e.spec)
        .map_err(|err| format!("{}: {err}", what()))?;
    if matches!(e.protocol, Protocol::Alg2) && !report.quiescently_terminated() {
        return Err(format!("{}: did not terminate quiescently", what()));
    }
    if report.predicted_messages != Some(report.total_messages) {
        return Err(format!(
            "{}: {} pulses, predicted {:?}",
            what(),
            report.total_messages,
            report.predicted_messages
        ));
    }
    if !oriented {
        return Err(format!("{}: inconsistent orientation", what()));
    }
    Ok(())
}

/// Registry build, the inputs of a pass, and one warm-up election per
/// protocol on a ring of [`WARM_N`] nodes.
pub fn setup(ctx: &Ctx) -> Plan {
    let _ = co_bench::protocols();
    let elections = (0..BLOCKS).flat_map(|b| block(ctx.seed, b)).collect();
    let mut rng = block_rng(ctx.seed, u64::MAX);
    for protocol in [Protocol::Alg1, Protocol::Alg2, Protocol::Alg3] {
        let warm = Election {
            protocol,
            spec: RingSpec::oriented(ids(WARM_N, &mut rng)),
            scheduler: SchedulerKind::Random,
            sched_seed: ctx.seed,
            latency: LatencyPlan::zero(),
        };
        std::hint::black_box(elect(&warm));
    }
    Plan { elections }
}

/// Runs passes over the plan until the measuring window closes. Every run
/// is checked; the latency samples are the median of each election's timed
/// repeats, and the throughput is the number of elections over the sum of
/// those medians.
///
/// The loop moves itself to the next allowed CPU every block, and a block
/// runs on another CPU each pass: a single thread otherwise stays on one
/// CPU for a whole run, and on a shared host one CPU can run tens of
/// percent slower than another for minutes.
pub fn measure(ctx: &Ctx, plan: &Plan) -> Measured {
    let mut m = Measured::default();
    let mut repeats = vec![Vec::new(); plan.elections.len()];
    let cpus = affinity::allowed();
    let window = ctx.window();
    'passes: for pass in 0.. {
        for (i, (e, times)) in plan.elections.iter().zip(&mut repeats).enumerate() {
            if !window.open() {
                break 'passes;
            }
            if i % (3 * STRATA) == 0 && !cpus.is_empty() {
                affinity::pin(&[cpus[(i / (3 * STRATA) + pass) % cpus.len()]]);
            }
            let measuring = window.measuring();
            let ((report, oriented), took) = ctx.timed(1, || elect(e));
            m.attempted += 1;
            match check(e, &report, oriented) {
                Ok(()) if measuring => {
                    times.push(took);
                    m.items += 1;
                }
                Ok(()) => {}
                Err(msg) => {
                    m.failed += 1;
                    fail(&mut m.failures, msg);
                }
            }
        }
    }
    affinity::pin(&cpus);
    m.ops = medians(&repeats).into_iter().map(|(_, d)| d).collect();
    let busy: Duration = m.ops.iter().sum();
    m.rates.push(m.ops.len() as f64 / busy.as_secs_f64());
    m
}

/// Linux CPU affinity of the calling thread (`sched_getaffinity(2)`,
/// `sched_setaffinity(2)`) for up to 1024 CPUs.
mod affinity {
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The CPUs the thread may run on, or none if the call fails.
    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: the kernel writes at most `size` bytes into `mask`.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..64 * WORDS)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// Restricts the thread to `cpus` (ignored if empty or if the call
    /// fails: placement only steadies the timings).
    pub fn pin(cpus: &[usize]) {
        if cpus.is_empty() {
            return;
        }
        let mut mask = [0u64; WORDS];
        for &c in cpus {
            mask[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: the kernel reads `size` bytes from `mask`.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }
}

/// Each election twice: untraced, then with the `co_net::prof` phases on
/// inside a span. The two reports must be identical.
pub fn traced(ctx: &Ctx, tracer: &mut Tracer) -> Layers {
    let mut l = Layers::default();
    let _ = co_bench::protocols();
    prof::reset();
    let (mut plain, mut traced) = (Duration::ZERO, Duration::ZERO);
    let mut deliveries = 0u64;
    let start = Instant::now();
    let mut b = 0u64;
    let mut op = 0u64;
    while start.elapsed() < ctx.seconds {
        for e in block(ctx.seed, b) {
            let t0 = Instant::now();
            let (base, oriented) = elect(&e);
            plain += t0.elapsed();
            prof::set_enabled(true);
            let ((report, _), _, took) = tracer.run("ring.election", None, op, || elect(&e));
            prof::set_enabled(false);
            traced += took;
            deliveries += report.steps;
            op += 1;
            l.attempted += 1;
            let agree = format!("{report:?}") == format!("{base:?}");
            let verdict = check(&e, &base, oriented).and_then(|()| {
                agree
                    .then_some(())
                    .ok_or_else(|| format!("election {op}: traced report differs"))
            });
            if let Err(msg) = verdict {
                l.failed += 1;
                fail(&mut l.failures, msg);
            }
        }
        b += 1;
    }
    let p = prof::report();
    engine_layers(&mut l, tracer, &p, "ring.election", traced, 1, op);
    l.set("engine.pulses", deliveries as f64 / op as f64, op);
    l.set(
        "trace.overhead_ratio",
        traced.as_secs_f64() / plain.as_secs_f64() - 1.0,
        op,
    );
    l
}
