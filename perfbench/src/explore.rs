//! `explore` and `explore-disk`: exhaustive exploration through the
//! registry's `ExploreDriver` (`co_net::explore::explore_parallel`) with
//! one worker per core.
//!
//! `explore` alternates Alg2 on n = 8 rings (IDs a seeded permutation of
//! `1..=8`) with Alg3 on n = 5 rings, exact dedup; one timed operation is
//! one such pair. `explore-disk` explores the same Alg2 spaces with the
//! file-backed `mmap` dedup store, a frontier spill mark low enough that
//! spilling fires, and a checkpoint every 20 000 admitted configurations:
//! one timed operation cuts the run at about a third of the space, reads
//! the checkpoint back and resumes it to completion, as `co-ring explore
//! --checkpoint` followed by `--resume` would.
//!
//! The ID arrangements come from a fixed catalogue of [`SPACES`] per
//! protocol; the workload seed picks each arrangement's rotation and the
//! order a run cycles through them. Rotating a ring relabels its
//! configurations without changing their number, so every seed explores
//! spaces of the same sizes: space sizes spread widely (the catalogue's
//! Alg2 n = 8 spaces hold 64 618 to 98 564 configurations) and the cost per
//! configuration of the file-backed store grows with them, so a freshly
//! drawn set per seed would make a run's figures depend on the seed more
//! than on the program.
//!
//! Every exploration must be complete, free of violations, end in exactly
//! one quiescent configuration, and admit exactly the catalogue's count for
//! its space ([`ALG2_CONFIGS`], [`ALG3_CONFIGS`]): so `explore-disk`'s
//! cut-and-resumed counts equal the uninterrupted `explore` counts.
//!
//! The traced run adds a probe that re-walks every space through the
//! public snapshot, step, fingerprint and dedup calls the explorer is
//! built from, timing each call; it must admit exactly as many
//! configurations as the explorer did.

use crate::trace::{self, Acc, Tracer};
use crate::{engine_layers, fail, medians, Ctx, Layers, Measured};
use co_core::{Alg2Node, Alg3Node, IdScheme};
use co_net::dedup::{DedupKind, ShardedIndex, MMAP_DEFAULT_BUDGET};
use co_net::explore::{
    CheckpointPlan, ExploreCheckpoint, ExploreConfig, ExploreLimits, ExploreReport,
};
use co_net::sched::FifoScheduler;
use co_net::{prof, Protocol, Pulse, QueueBackend, RingSpec, Simulation, Snapshot};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Catalogued ID arrangements per protocol; a run cycles through them.
const SPACES: usize = 16;
/// Seed of the catalogue of ID arrangements (not the workload seed).
const CATALOGUE_SEED: u64 = 2024;
/// Configurations of the catalogue's Alg2 n = 8 spaces, in catalogue order,
/// as counted by an uninterrupted exact exploration (and unchanged under
/// rotation).
const ALG2_CONFIGS: [usize; SPACES] = [
    88_885, 78_129, 73_040, 79_858, 76_836, 98_564, 83_623, 71_107, 74_521, 72_582, 75_628, 64_618,
    71_856, 91_241, 74_816, 87_985,
];
/// Configurations of the catalogue's Alg3 n = 5 spaces, likewise.
const ALG3_CONFIGS: [usize; SPACES] = [
    58_968, 57_960, 57_224, 57_096, 58_890, 58_394, 57_276, 57_316, 58_903, 58_394, 57_316, 56_588,
    57_316, 60_180, 57_096, 59_501,
];
/// Where `explore-disk` cuts a run: about a third of the median Alg2 space.
const CUT_AT: usize = 26_000;
/// Admitted configurations between checkpoints.
const CHECKPOINT_EVERY: usize = 20_000;
/// Frontier items per worker shard before the coldest spill to disk.
const SPILL_HIGH_WATER: usize = 64;

const MMAP: DedupKind = DedupKind::Mmap {
    budget: MMAP_DEFAULT_BUDGET,
};

/// A ring to explore and the configuration count it must reach.
pub struct Space {
    spec: RingSpec,
    configs: usize,
}

pub struct Plan {
    disk: bool,
    alg2: Vec<Space>,
    alg3: Vec<Space>,
}

/// The catalogue's rings of `n` nodes, each rotated and ordered by `rng`.
fn spaces(
    n: u64,
    counts: &[usize; SPACES],
    catalogue: &mut StdRng,
    rng: &mut StdRng,
) -> Vec<Space> {
    let mut arrangements: Vec<(Vec<u64>, usize)> = counts
        .iter()
        .map(|&configs| {
            let mut ids: Vec<u64> = (1..=n).collect();
            ids.shuffle(catalogue);
            (ids, configs)
        })
        .collect();
    arrangements.shuffle(rng);
    arrangements
        .into_iter()
        .map(|(mut ids, configs)| {
            let by = rng.gen_range(0..ids.len());
            ids.rotate_left(by);
            Space {
                spec: RingSpec::oriented(ids),
                configs,
            }
        })
        .collect()
}

fn plan(seed: u64, disk: bool) -> Plan {
    let mut catalogue = StdRng::seed_from_u64(CATALOGUE_SEED);
    let mut rng = StdRng::seed_from_u64(seed);
    let alg2 = spaces(8, &ALG2_CONFIGS, &mut catalogue, &mut rng);
    let alg3 = spaces(5, &ALG3_CONFIGS, &mut catalogue, &mut rng);
    Plan { disk, alg2, alg3 }
}

fn driver(protocol: &str) -> co_core::registry::ExploreDriver {
    co_bench::protocols()
        .explore(protocol)
        .expect("the protocol is registered as explore-capable")
}

fn exact(ctx: &Ctx) -> ExploreConfig {
    ExploreConfig {
        jobs: ctx.jobs,
        dedup: DedupKind::Exact,
        ..ExploreConfig::default()
    }
}

fn meta(spec: &RingSpec) -> Vec<u8> {
    format!("co-perfbench explore-disk|alg2|{spec}").into_bytes()
}

/// The result of one cut-and-resume exploration. `marks` are the start of
/// the cut run, of the checkpoint read, of the resume, and the end.
struct DiskRun {
    cut: ExploreReport,
    done: ExploreReport,
    marks: [Instant; 4],
}

/// Explores `spec` with Alg2 on the out-of-core path: cut at `cut`
/// configurations, read the checkpoint back, resume to completion. With
/// `prof_on` the explorer calls run with the `co_net::prof` phases on.
fn disk_run(ctx: &Ctx, spec: &RingSpec, cut: usize, prof_on: bool) -> Result<DiskRun, String> {
    let alg2 = driver("alg2");
    let ck_path = ctx.scratch.join("cut.ck");
    let base = ExploreConfig {
        jobs: ctx.jobs,
        dedup: MMAP,
        spill_high_water: SPILL_HIGH_WATER,
        scratch_dir: Some(ctx.scratch.clone()),
        ..ExploreConfig::default()
    };
    let cut_cfg = ExploreConfig {
        limits: ExploreLimits {
            max_configs: cut,
            ..ExploreLimits::default()
        },
        checkpoint: Some(CheckpointPlan {
            path: ck_path.clone(),
            every: CHECKPOINT_EVERY,
            meta: meta(spec),
        }),
        ..base.clone()
    };
    let t0 = Instant::now();
    prof::set_enabled(prof_on);
    let cut = alg2.run(spec, &cut_cfg);
    prof::set_enabled(false);
    let t1 = Instant::now();
    let ck = ExploreCheckpoint::read(&ck_path)?;
    if ck.meta != meta(spec) {
        return Err(format!(
            "{}: checkpoint is for another instance",
            ck_path.display()
        ));
    }
    let resume_cfg = ExploreConfig {
        checkpoint: Some(CheckpointPlan {
            path: ctx.scratch.join("resume.ck"),
            every: CHECKPOINT_EVERY,
            meta: meta(spec),
        }),
        resume: Some(ck),
        ..base
    };
    let t2 = Instant::now();
    prof::set_enabled(prof_on);
    let done = alg2.run(spec, &resume_cfg);
    prof::set_enabled(false);
    Ok(DiskRun {
        cut,
        done,
        marks: [t0, t1, t2, Instant::now()],
    })
}

/// Checks one finished exploration: complete, no violations, exactly one
/// quiescent configuration (the elected, terminated ring), and the
/// catalogue's configuration count.
fn check_report(what: &str, r: &ExploreReport, configs: usize) -> Result<(), String> {
    if r.configs != configs {
        return Err(format!("{what}: {} configs, expected {configs}", r.configs));
    }
    if !r.complete {
        return Err(format!("{what}: incomplete after {} configs", r.configs));
    }
    if !r.violations.is_empty() {
        return Err(format!("{what}: violations {:?}", r.violations));
    }
    if r.quiescent_configs != 1 {
        return Err(format!(
            "{what}: {} quiescent configurations",
            r.quiescent_configs
        ));
    }
    Ok(())
}

/// The guards that keep `explore-disk` from quietly becoming `explore`:
/// the cut really cut, spilling fired, at least two checkpoints were
/// written, and the resumed run finished cleanly.
fn check_disk(what: &str, d: &DiskRun, configs: usize) -> Result<(), String> {
    if d.cut.complete || d.cut.configs >= d.done.configs {
        return Err(format!("{what}: the cut run did not stop early"));
    }
    check_report(what, &d.done, configs)?;
    if d.done.spilled_jobs == 0 {
        return Err(format!("{what}: no frontier item was spilled"));
    }
    if d.cut.checkpoints_written + d.done.checkpoints_written < 2 {
        return Err(format!("{what}: fewer than two checkpoints written"));
    }
    Ok(())
}

/// Registry build, the seeded spaces, and a warm-up exploration of a small
/// ring through the same path the timed operations take.
pub fn setup(ctx: &Ctx, disk: bool) -> Plan {
    let _ = co_bench::protocols();
    let p = plan(ctx.seed, disk);
    let warm = RingSpec::oriented(vec![3, 1, 4, 6, 5, 2]);
    if disk {
        let _ = std::hint::black_box(disk_run(ctx, &warm, 1_000, false));
    } else {
        std::hint::black_box(driver("alg2").run(&warm, &exact(ctx)));
    }
    p
}

/// Cycles through the catalogue until the measuring window closes. Every
/// exploration is checked; the latency samples are the median of each
/// catalogue slot's timed repeats, and the throughput is the slots'
/// configurations over the sum of those medians.
pub fn measure(ctx: &Ctx, plan: &Plan) -> Measured {
    let mut m = Measured::default();
    let mut repeats = vec![Vec::new(); SPACES];
    let mut configs = [0u64; SPACES];
    let window = ctx.window();
    let mut i = 0usize;
    while window.open() {
        let measuring = window.measuring();
        let slot = i % SPACES;
        let (a2, a3) = (&plan.alg2[slot], &plan.alg3[slot]);
        i += 1;
        let mut results: Vec<Result<usize, String>> = Vec::new();
        let took = if plan.disk {
            let (run, took) = ctx.timed(ctx.jobs, || disk_run(ctx, &a2.spec, CUT_AT, false));
            let what = format!("alg2 {}", a2.spec);
            results.push(run.and_then(|d| check_disk(&what, &d, a2.configs).map(|()| a2.configs)));
            took
        } else {
            let cfg = exact(ctx);
            let ((r2, r3), took) = ctx.timed(ctx.jobs, || {
                (
                    driver("alg2").run(&a2.spec, &cfg),
                    driver("alg3").run(&a3.spec, &cfg),
                )
            });
            for (what, r, space) in [("alg2", r2, a2), ("alg3", r3, a3)] {
                let what = format!("{what} {}", space.spec);
                results.push(check_report(&what, &r, space.configs).map(|()| r.configs));
            }
            took
        };
        let mut done = 0u64;
        for result in results {
            m.attempted += 1;
            match result {
                Ok(configs) => done += configs as u64,
                Err(msg) => {
                    m.failed += 1;
                    fail(&mut m.failures, msg);
                }
            }
        }
        if measuring {
            repeats[slot].push(took);
            configs[slot] = done;
            m.items += done;
        }
    }
    let (mut timed, mut busy) = (0u64, Duration::ZERO);
    for (slot, took) in medians(&repeats) {
        m.ops.push(took);
        timed += configs[slot];
        busy += took;
    }
    m.rates.push(timed as f64 / busy.as_secs_f64());
    m
}

/// Per-call timings of one probe walk (or the sum of several).
#[derive(Default)]
struct Probe {
    restore: Acc,
    snapshot: Acc,
    fingerprint: Acc,
    step: Acc,
    insert: Acc,
    admitted: u64,
    heap_bytes: f64,
    file_bytes: f64,
}

impl Probe {
    fn add(&mut self, other: &Probe) {
        self.restore.add(other.restore);
        self.snapshot.add(other.snapshot);
        self.fingerprint.add(other.fingerprint);
        self.step.add(other.step);
        self.insert.add(other.insert);
        self.admitted += other.admitted;
        self.heap_bytes += other.heap_bytes;
        self.file_bytes += other.file_bytes;
    }
}

/// Re-walks the whole space of `nodes` on `spec` depth-first from the
/// started initial configuration, through the same public calls the
/// explorer makes, admitting fingerprints into a fresh `dedup` index.
fn probe<P>(ctx: &Ctx, spec: &RingSpec, nodes: Vec<P>, dedup: DedupKind) -> Probe
where
    P: Protocol<Pulse> + Snapshot + Clone,
{
    let mut pr = Probe::default();
    let mut sim: Simulation<Pulse, P> = Simulation::with_backend(
        spec.wiring(),
        nodes,
        Box::new(FifoScheduler::new()),
        QueueBackend::Counter,
    );
    sim.start();
    trace::count_heap(true);
    let base = trace::live_heap();
    let index = ShardedIndex::with_dir(dedup, 0, 0.0, Some(&ctx.scratch));
    let fp = pr.fingerprint.time(|| sim.fingerprint());
    pr.insert.time(|| index.insert(fp));
    let mut stack = vec![pr.snapshot.time(|| sim.snapshot())];
    while let Some(snap) = stack.pop() {
        pr.restore.time(|| sim.restore(&snap));
        for channel in sim.ready_channels() {
            pr.restore.time(|| sim.restore(&snap));
            pr.step.time(|| sim.step_channel(channel));
            let fp = pr.fingerprint.time(|| sim.fingerprint());
            if pr.insert.time(|| index.insert(fp)) {
                stack.push(pr.snapshot.time(|| sim.snapshot()));
            }
        }
    }
    // The stack is empty: what is still counted is the index (plus the
    // few bytes the simulation grew by).
    pr.heap_bytes = (trace::live_heap() - base) as f64;
    trace::count_heap(false);
    pr.admitted = index.admitted() as u64;
    pr.file_bytes = index.bytes().file as f64;
    pr
}

fn alg2_nodes(spec: &RingSpec) -> Vec<Alg2Node> {
    (0..spec.len())
        .map(|i| Alg2Node::new(spec.id(i), spec.cw_port(i)))
        .collect()
}

fn alg3_nodes(spec: &RingSpec) -> Vec<Alg3Node> {
    (0..spec.len())
        .map(|i| Alg3Node::new(spec.id(i), IdScheme::Improved))
        .collect()
}

/// What the traced run accumulates over its operations.
#[derive(Default)]
struct Totals {
    probe: Probe,
    plain: Duration,
    traced: Duration,
    ops: u64,
    disk_ops: u64,
    spilled: u64,
    checkpoints: u64,
    ck_read: Acc,
    ck_write: Acc,
    resume: Acc,
}

/// One explored space of a traced operation: its label, the untraced and
/// traced explorer counts, and the probe's walk.
type Case = (String, usize, usize, Probe);

fn nanos(d: Duration) -> Acc {
    Acc {
        count: 1,
        ns: d.as_nanos() as u64,
    }
}

/// A traced `explore` operation: the pair untraced, then traced with the
/// prof phases on, then the probe over both spaces.
fn traced_pair(
    ctx: &Ctx,
    tracer: &mut Tracer,
    t: &mut Totals,
    a2: &Space,
    a3: &Space,
) -> Vec<Result<Case, String>> {
    let (s2, s3) = (&a2.spec, &a3.spec);
    let cfg = exact(ctx);
    let op = t.ops;
    let t0 = Instant::now();
    let base = (driver("alg2").run(s2, &cfg), driver("alg3").run(s3, &cfg));
    t.plain += t0.elapsed();
    prof::set_enabled(true);
    let (run, _, took) = tracer.run("explore.exploration", None, op, || {
        (driver("alg2").run(s2, &cfg), driver("alg3").run(s3, &cfg))
    });
    prof::set_enabled(false);
    t.traced += took;
    let (p2, _, _) = tracer.run("explore.probe", None, op, || {
        probe(ctx, s2, alg2_nodes(s2), DedupKind::Exact)
    });
    let (p3, _, _) = tracer.run("explore.probe", None, op, || {
        probe(ctx, s3, alg3_nodes(s3), DedupKind::Exact)
    });
    [
        (format!("alg2 {s2}"), a2.configs, base.0, run.0, p2),
        (format!("alg3 {s3}"), a3.configs, base.1, run.1, p3),
    ]
    .into_iter()
    .map(|(what, configs, b, r, pr)| {
        check_report(&what, &b, configs)?;
        Ok((what, b.configs, r.configs, pr))
    })
    .collect()
}

/// A traced `explore-disk` operation: the cut and resume untraced, then
/// traced (child spans for the cut, the checkpoint read and the resume),
/// then the checkpoint codec timed on its own (read + decode, encode +
/// atomic write of a copy), then the probe over an mmap index.
fn traced_disk(
    ctx: &Ctx,
    tracer: &mut Tracer,
    t: &mut Totals,
    space: &Space,
) -> Result<Case, String> {
    let (a2, op) = (&space.spec, t.ops);
    let what = format!("alg2 {a2}");
    let t0 = Instant::now();
    let base = disk_run(ctx, a2, CUT_AT, false);
    t.plain += t0.elapsed();
    let (run, span, took) = tracer.run("explore.cut_resume", None, op, || {
        disk_run(ctx, a2, CUT_AT, true)
    });
    t.traced += took;
    let (base, run) = (base?, run?);
    check_disk(&what, &base, space.configs)?;
    for (k, name) in ["explore.cut", "explore.checkpoint_read", "explore.resume"]
        .into_iter()
        .enumerate()
    {
        let (a, b) = (tracer.ns_at(run.marks[k]), tracer.ns_at(run.marks[k + 1]));
        tracer.span(name, a, b, Some(span), op);
    }
    t.disk_ops += 1;
    t.spilled += run.done.spilled_jobs as u64;
    t.checkpoints += (run.cut.checkpoints_written + run.done.checkpoints_written) as u64;
    t.resume.add(nanos(run.marks[3] - run.marks[2]));

    let cut_path = ctx.scratch.join("cut.ck");
    let (ck, _, took) = tracer.run("explore.checkpoint_read", None, op, || {
        ExploreCheckpoint::read(&cut_path)
    });
    t.ck_read.add(nanos(took));
    let ck = ck?;
    let copy_path = ctx.scratch.join("copy.ck");
    let (written, _, took) = tracer.run("explore.checkpoint_write", None, op, || {
        ck.write_atomic(&copy_path)
    });
    t.ck_write.add(nanos(took));
    written?;

    let (pr, _, _) = tracer.run("explore.probe", None, op, || {
        probe(ctx, a2, alg2_nodes(a2), MMAP)
    });
    Ok((what, base.done.configs, run.done.configs, pr))
}

/// Every operation twice (untraced, then with the prof phases on inside
/// spans), then the probe over each explored space. Traced and untraced
/// counts, and the probe's count, must all agree.
pub fn traced(ctx: &Ctx, tracer: &mut Tracer, disk: bool) -> Layers {
    let plan = plan(ctx.seed, disk);
    let _ = co_bench::protocols();
    let mut l = Layers::default();
    let mut t = Totals::default();
    prof::reset();
    let start = Instant::now();
    while start.elapsed() < ctx.seconds {
        let i = t.ops as usize % SPACES;
        let cases = if disk {
            vec![traced_disk(ctx, tracer, &mut t, &plan.alg2[i])]
        } else {
            traced_pair(ctx, tracer, &mut t, &plan.alg2[i], &plan.alg3[i])
        };
        t.ops += 1;
        for case in cases {
            l.attempted += 1;
            let verdict = case.and_then(|(what, base, run, pr)| {
                t.probe.add(&pr);
                if base == run && pr.admitted == base as u64 {
                    Ok(())
                } else {
                    Err(format!(
                        "{what}: untraced {base}, traced {run}, probe {} configs",
                        pr.admitted
                    ))
                }
            });
            if let Err(msg) = verdict {
                l.failed += 1;
                fail(&mut l.failures, msg);
            }
        }
    }

    let p = prof::report();
    let parent = if disk {
        "explore.cut_resume"
    } else {
        "explore.exploration"
    };
    engine_layers(&mut l, tracer, &p, parent, t.traced, ctx.jobs, t.ops);
    let deliveries = p.phase(prof::Phase::Deliver).count;
    l.set("engine.pulses", deliveries as f64 / t.ops as f64, t.ops);

    let pr = &t.probe;
    let configs = pr.admitted.max(1) as f64;
    let insert = if disk {
        ("dedup.mmap_insert_ns", "dedup.mmap_insert")
    } else {
        ("dedup.insert_ns", "dedup.insert")
    };
    for ((metric, layer), acc) in [
        (("snapshot.restore_ns", "snapshot.restore"), pr.restore),
        (("snapshot.snapshot_ns", "snapshot.snapshot"), pr.snapshot),
        (
            ("snapshot.fingerprint_ns", "snapshot.fingerprint"),
            pr.fingerprint,
        ),
        (("sim.step_channel_ns", "sim.step_channel"), pr.step),
        (insert, pr.insert),
    ] {
        tracer.aggregate(layer, "explore.probe", acc);
        l.set(metric, acc.mean_ns(), acc.count);
    }
    let probes = pr.insert.count;
    let revisits = probes - pr.admitted.min(probes);
    l.set(
        "dedup.revisit_ratio",
        revisits as f64 / probes.max(1) as f64,
        probes,
    );
    let expansions = pr.step.count;
    l.set(
        "explore.expansions_per_config",
        expansions as f64 / configs,
        expansions,
    );
    l.set(
        "dedup.heap_bytes_per_config",
        pr.heap_bytes / configs,
        pr.admitted,
    );
    l.set(
        "dedup.file_bytes_per_config",
        pr.file_bytes / configs,
        pr.admitted,
    );
    if disk {
        let n = t.disk_ops.max(1) as f64;
        l.set("explore.spilled_items", t.spilled as f64 / n, t.disk_ops);
        l.set(
            "explore.checkpoints_written",
            t.checkpoints as f64 / n,
            t.disk_ops,
        );
        l.set(
            "explore.checkpoint_read_ms",
            t.ck_read.mean_ns() / 1e6,
            t.ck_read.count,
        );
        l.set(
            "explore.checkpoint_write_ms",
            t.ck_write.mean_ns() / 1e6,
            t.ck_write.count,
        );
        l.set(
            "explore.resume_ms",
            t.resume.mean_ns() / 1e6,
            t.resume.count,
        );
    }
    let overhead = t.traced.as_secs_f64() / t.plain.as_secs_f64() - 1.0;
    l.set("trace.overhead_ratio", overhead, t.ops);
    l
}
