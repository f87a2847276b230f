//! `fleet`: `co_bench::run_fleet` over Alg1 and Alg2 in alternate rounds,
//! ring sizes `uniform:3..9`, 2·10⁵ rings per round, fault-free, one worker
//! per core. One timed operation is one Alg1 round followed by one Alg2
//! round, each with its own fleet seed drawn from the workload seed. Time
//! goes to `co_net::fleet`'s shard engine and run arena and to
//! `co_bench::parallel` fan-out; no `EventCore`, snapshot or dedup work.
//!
//! The traced run fans the shards out itself (`FleetDriver::run_shard` over
//! `co_bench::par_map`), timing every shard and the merge; its merged
//! report must equal the untraced `run_fleet` report byte for byte.

use crate::trace::{Acc, Tracer};
use crate::{engine_layers, fail, percentile, Ctx, Layers, Measured};
use co_core::registry::FleetDriver;
use co_net::fleet::{FleetConfig, FleetReport, RingSizes};
use co_net::prof;
use std::time::{Duration, Instant};

const RINGS: u64 = 200_000;
const WARM_RINGS: u64 = 20_000;

pub struct Plan {
    drivers: [(&'static str, FleetDriver); 2],
}

fn config(rings: u64, seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::new(rings);
    cfg.sizes = RingSizes::Uniform { min: 3, max: 9 };
    cfg.seed = seed;
    cfg.fault_rate = 0.0;
    cfg
}

/// The fleet seed of round `round`.
fn round_seed(seed: u64, round: u64) -> u64 {
    co_net::dedup::splitmix64(seed ^ round.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// Every ring elects exactly one leader and none exhausts its budget.
fn check(what: &str, r: &FleetReport, rings: u64) -> Result<(), String> {
    if r.rings != rings || r.elections != rings || r.budget_exhausted != 0 {
        return Err(format!(
            "{what}: {} rings, {} elections, {} out of budget",
            r.rings, r.elections, r.budget_exhausted
        ));
    }
    Ok(())
}

/// Registry build and one small warm-up round per protocol.
pub fn setup(ctx: &Ctx) -> Plan {
    let reg = co_bench::protocols();
    let drivers = ["alg1", "alg2"].map(|name| {
        (
            name,
            reg.fleet(name)
                .expect("the protocol is registered as fleet-capable"),
        )
    });
    for (_, d) in drivers {
        std::hint::black_box(co_bench::run_fleet(
            &config(WARM_RINGS, ctx.seed),
            d,
            1,
            ctx.jobs,
        ));
    }
    Plan { drivers }
}

pub fn measure(ctx: &Ctx, plan: &Plan) -> Measured {
    let mut m = Measured::default();
    let window = ctx.window();
    let mut round = 0u64;
    while window.open() {
        let measuring = window.measuring();
        let cfgs = [0, 1].map(|k| config(RINGS, round_seed(ctx.seed, round + k)));
        let (summaries, took) = ctx.timed(ctx.jobs, || {
            [0, 1].map(|k| co_bench::run_fleet(&cfgs[k], plan.drivers[k].1, 1, ctx.jobs))
        });
        let mut done = 0u64;
        for (k, s) in summaries.iter().enumerate() {
            let what = format!("{} round {}", plan.drivers[k].0, round + k as u64);
            m.attempted += s.report.rings;
            match check(&what, &s.report, RINGS) {
                Ok(()) => done += s.report.elections,
                Err(msg) => {
                    m.failed += (s.report.rings - s.report.elections.min(s.report.rings)).max(1);
                    fail(&mut m.failures, msg);
                }
            }
        }
        if measuring {
            m.ops.push(took);
            m.items += done;
            m.rates.push(done as f64 / took.as_secs_f64());
        }
        round += 2;
    }
    m
}

/// Each round three times: untraced `run_fleet`; the benchmark's own shard
/// fan-out with a span per shard and around the merge; and `run_fleet`
/// again with the `co_net::prof` phases on. All three reports must be equal.
pub fn traced(ctx: &Ctx, tracer: &mut Tracer) -> Layers {
    let plan = setup(ctx);
    let mut l = Layers::default();
    let (mut plain, mut traced) = (Duration::ZERO, Duration::ZERO);
    let mut shard_times: Vec<Duration> = Vec::new();
    let (mut busy, mut merge, mut profiled) = (Duration::ZERO, Acc::default(), Duration::ZERO);
    let (mut rings, mut pulses, mut peak_bytes) = (0u64, 0u64, 0u64);
    let mut rounds = 0u64;
    prof::reset();
    let start = Instant::now();
    while start.elapsed() < ctx.seconds {
        let (name, driver) = plan.drivers[(rounds % 2) as usize];
        let cfg = config(RINGS, round_seed(ctx.seed, rounds));
        let op = rounds;
        rounds += 1;
        let t0 = Instant::now();
        let base = co_bench::run_fleet(&cfg, driver, 1, ctx.jobs).report;
        plain += t0.elapsed();

        let round_start = tracer.now_ns();
        let t0 = Instant::now();
        let shards: Vec<u64> = (0..cfg.shard_count()).collect();
        let parts = co_bench::par_map(&shards, ctx.jobs, |&shard| {
            let t = Instant::now();
            let r = driver.run_shard(&cfg, 0, cfg.shard_range(shard));
            (r, t, Instant::now())
        });
        let fanned = tracer.now_ns();
        let mut report = FleetReport::new();
        for (part, _, _) in &parts {
            report.merge(part);
        }
        let wall = t0.elapsed();
        let round_end = tracer.now_ns();
        traced += wall;
        let span = tracer.span("fleet.round", round_start, round_end, None, op);
        for (_, a, b) in &parts {
            shard_times.push(*b - *a);
            busy += *b - *a;
            tracer.span(
                "fleet.shard",
                tracer.ns_at(*a),
                tracer.ns_at(*b),
                Some(span),
                op,
            );
        }
        tracer.span("fleet.merge", fanned, round_end, Some(span), op);
        merge.add(Acc {
            count: 1,
            ns: round_end - fanned,
        });

        prof::set_enabled(true);
        let (with_prof, _, took) = tracer.run("fleet.profiled", None, op, || {
            co_bench::run_fleet(&cfg, driver, 1, ctx.jobs).report
        });
        prof::set_enabled(false);
        profiled += took;

        let what = format!("{name} round {op}");
        l.attempted += base.rings;
        let verdict = check(&what, &base, RINGS).and_then(|()| {
            let same =
                report == base && with_prof == base && format!("{report:?}") == format!("{base:?}");
            same.then_some(())
                .ok_or_else(|| format!("{what}: traced fleet report differs"))
        });
        if let Err(msg) = verdict {
            l.failed += base.rings;
            fail(&mut l.failures, msg);
        }
        rings += base.rings;
        pulses += base.total_pulses;
        peak_bytes = peak_bytes.max(base.peak_ring_queue_bytes);
    }
    let p = prof::report();
    engine_layers(
        &mut l,
        tracer,
        &p,
        "fleet.profiled",
        profiled,
        ctx.jobs,
        rounds,
    );
    l.set(
        "engine.pulses",
        p.phase(prof::Phase::Deliver).count as f64 / rounds as f64,
        rounds,
    );
    let n = shard_times.len() as u64;
    l.set(
        "fleet.shard_ms_p50",
        percentile(&shard_times, 0.5).as_secs_f64() * 1e3,
        n,
    );
    l.set(
        "fleet.shard_ms_p90",
        percentile(&shard_times, 0.9).as_secs_f64() * 1e3,
        n,
    );
    l.set(
        "fleet.worker_busy_ratio",
        busy.as_secs_f64() / (traced.as_secs_f64() * ctx.jobs as f64),
        n,
    );
    l.set("fleet.merge_us", merge.mean_ns() / 1e3, merge.count);
    l.set("fleet.pulses_per_ring", pulses as f64 / rings as f64, rings);
    l.set("fleet.peak_queue_bytes_per_ring", peak_bytes as f64, rings);
    l.set(
        "trace.overhead_ratio",
        traced.as_secs_f64() / plain.as_secs_f64() - 1.0,
        rounds,
    );
    l
}
