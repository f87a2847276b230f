//! The repository benchmark.
//!
//! ```text
//! co-perfbench --workload <ring|explore|explore-disk|fleet> --seed <n>
//!              --seconds <s> --trace <0|1> [--inject-delay <fraction>]
//! ```
//!
//! One process runs one workload as a closed loop with one client: the next
//! operation starts when the previous one returns. Inputs are generated from
//! `--seed`, every output is checked, and the last line of standard output
//! is one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//!
//! * `--trace 0` measures the end-to-end metrics with every probe off.
//! * `--trace 1` is the separate traced run: it repeats each operation
//!   with spans and the `co_net::prof` phases on, re-walks explored spaces
//!   through the public snapshot and dedup calls, checks that traced and
//!   untraced results agree, and reports the per-layer metrics. Spans go to
//!   `.bench_run/trace-<workload>-s<seed>.jsonl`.
//! * `--inject-delay F` pads every timed operation by `F` times its own
//!   duration: the regression self-check (`compare.py selfcheck`) uses it
//!   to show that a known slowdown is flagged.
//!
//! The benchmark drives the same entry points the `co-ring` subcommands
//! call and times them from outside; it adds no code to the program.

mod explore;
mod fleet;
mod ring;
mod trace;

use co_json::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Set-up is repeated this many times per run and its median reported.
const SETUP_REPS: usize = 9;

/// Operations that start this early in the measuring loop run and are
/// checked but not timed, so that every run times a host that has already
/// carried the workload's own load for a while (on a shared host the first
/// seconds after a pause run measurably faster).
const PREHEAT: Duration = Duration::from_secs(3);

/// End-to-end metrics (`--trace 0`), in output order.
const END_TO_END: [(&str, &str); 5] = [
    ("throughput_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`), in output order. A layer the workload
/// does not exercise reports 0 with 0 samples.
const PER_LAYER: [(&str, &str); 28] = [
    ("engine.enqueue_ns", "ns"),
    ("engine.deliver_ns", "ns"),
    ("engine.observe_ns", "ns"),
    ("sched.pick_ns", "ns"),
    ("sched.pick_share", "ratio"),
    ("engine.pulses", "count"),
    ("snapshot.restore_ns", "ns"),
    ("snapshot.snapshot_ns", "ns"),
    ("snapshot.fingerprint_ns", "ns"),
    ("sim.step_channel_ns", "ns"),
    ("dedup.insert_ns", "ns"),
    ("dedup.revisit_ratio", "ratio"),
    ("explore.expansions_per_config", "ratio"),
    ("dedup.heap_bytes_per_config", "B"),
    ("dedup.mmap_insert_ns", "ns"),
    ("dedup.file_bytes_per_config", "B"),
    ("explore.spilled_items", "count"),
    ("explore.checkpoints_written", "count"),
    ("explore.checkpoint_write_ms", "ms"),
    ("explore.checkpoint_read_ms", "ms"),
    ("explore.resume_ms", "ms"),
    ("fleet.shard_ms_p50", "ms"),
    ("fleet.shard_ms_p90", "ms"),
    ("fleet.worker_busy_ratio", "ratio"),
    ("fleet.merge_us", "us"),
    ("fleet.pulses_per_ring", "count"),
    ("fleet.peak_queue_bytes_per_ring", "B"),
    ("trace.overhead_ratio", "ratio"),
];

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Workload {
    Ring,
    Explore,
    ExploreDisk,
    Fleet,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "ring" => Workload::Ring,
            "explore" => Workload::Explore,
            "explore-disk" => Workload::ExploreDisk,
            "fleet" => Workload::Fleet,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Ring => "ring",
            Workload::Explore => "explore",
            Workload::ExploreDisk => "explore-disk",
            Workload::Fleet => "fleet",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    inject_delay: f64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut inject_delay = 0.0;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be in 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            "--inject-delay" => {
                let f = value
                    .parse::<f64>()
                    .map_err(|e| format!("--inject-delay: {e}"))?;
                if !(0.0..=10.0).contains(&f) {
                    return Err("--inject-delay must be in 0..=10".into());
                }
                inject_delay = f;
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        inject_delay,
    })
}

/// What every workload gets: the seed, the measuring time, worker threads,
/// the injected delay and a per-run scratch directory.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub jobs: usize,
    pub inject_delay: f64,
    pub scratch: PathBuf,
}

impl Ctx {
    pub fn window(&self) -> Window {
        Window {
            start: Instant::now(),
            end: PREHEAT + self.seconds,
        }
    }

    /// Times `op`, which keeps `threads` threads busy. With
    /// `--inject-delay F` the measured interval is padded to `1 + F` times
    /// the operation's own duration by spinning on as many threads: a real
    /// slowdown burns CPU, and idling instead would let the host run the
    /// following operations faster.
    pub fn timed<R>(&self, threads: usize, op: impl FnOnce() -> R) -> (R, Duration) {
        let t0 = Instant::now();
        let r = std::hint::black_box(op());
        if self.inject_delay > 0.0 {
            let target = t0.elapsed().mul_f64(1.0 + self.inject_delay);
            let spin = || {
                while t0.elapsed() < target {
                    std::hint::spin_loop();
                }
            };
            std::thread::scope(|s| {
                for _ in 1..threads {
                    s.spawn(spin);
                }
                spin();
            });
        }
        (r, t0.elapsed())
    }
}

/// The measuring loop of an untraced run: [`PREHEAT`], then `--seconds`.
pub struct Window {
    start: Instant,
    end: Duration,
}

impl Window {
    /// Whether another operation may start.
    pub fn open(&self) -> bool {
        self.start.elapsed() < self.end
    }

    /// Whether an operation starting now is timed.
    pub fn measuring(&self) -> bool {
        self.start.elapsed() >= PREHEAT
    }
}

/// Outcome of the untraced run of a workload.
#[derive(Default)]
pub struct Measured {
    /// Latency samples: the duration of every timed operation, or where a
    /// run repeats the same operations (a `ring` election, an `explore`
    /// catalogue slot) the median duration of each one's repeats.
    pub ops: Vec<Duration>,
    /// Work items completed by the timed operations (elections for `ring`
    /// and `fleet`, admitted configurations for the explore workloads).
    pub items: u64,
    /// Items per second of each operation, or one rate over the latency
    /// samples where those are medians of repeats; `throughput_per_s` is
    /// their median, so one stalled operation cannot move it.
    pub rates: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

/// Outcome of the traced run: per-layer values with their sample counts.
#[derive(Default)]
pub struct Layers {
    pub values: Vec<(&'static str, f64, u64)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.values.push((name, value, samples));
    }
}

/// Reports the `co_net::prof` phase totals as engine and scheduler layers
/// (children of `parent` spans that took `wall` over `threads` threads).
pub fn engine_layers(
    l: &mut Layers,
    tracer: &mut trace::Tracer,
    p: &co_net::prof::ProfReport,
    parent: &'static str,
    wall: Duration,
    threads: usize,
    ops: u64,
) {
    use co_net::prof::Phase;
    let phases = [
        (Phase::Enqueue, "engine.enqueue", "engine.enqueue_ns"),
        (Phase::Deliver, "engine.deliver", "engine.deliver_ns"),
        (Phase::Observe, "engine.observe", "engine.observe_ns"),
        (Phase::Pick, "sched.pick", "sched.pick_ns"),
    ];
    for (phase, layer, metric) in phases {
        let s = p.phase(phase);
        let acc = trace::Acc {
            count: s.count,
            ns: s.total_ns,
        };
        tracer.aggregate(layer, parent, acc);
        l.set(metric, acc.mean_ns(), s.count);
    }
    let pick = p.phase(Phase::Pick).total_ns as f64;
    let busy = wall.as_secs_f64() * 1e9 * threads as f64;
    l.set("sched.pick_share", pick / busy.max(1.0), ops);
}

/// Keeps the message of a failed check (the first few only; the caller
/// counts the failed operation).
pub fn fail(failures: &mut Vec<String>, msg: String) {
    if failures.len() < 8 {
        failures.push(msg);
    }
}

/// Nearest-rank percentile of `samples` (`q` in `0..=1`).
pub fn percentile(samples: &[Duration], q: f64) -> Duration {
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median of each non-empty list of repeated timings (the mean of the
/// middle two for an even count), with the index of the list.
pub fn medians(repeats: &[Vec<Duration>]) -> Vec<(usize, Duration)> {
    let mut out = Vec::with_capacity(repeats.len());
    for (i, r) in repeats.iter().enumerate().filter(|(_, r)| !r.is_empty()) {
        let mut v = r.clone();
        v.sort_unstable();
        let n = v.len();
        out.push((i, (v[(n - 1) / 2] + v[n / 2]) / 2));
    }
    out
}

fn median_f64(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A per-run scratch directory, removed when dropped — also while a
/// failing check unwinds.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn metric(value: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("value".into(), Value::Float(value)),
        ("unit".into(), Value::from(unit)),
    ])
}

fn run(args: &Args) -> Result<(bool, Value), String> {
    let root = Path::new(".bench_run");
    let scratch = Scratch(root.join(format!(
        "{}-s{}-p{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    )));
    std::fs::create_dir_all(&scratch.0)
        .map_err(|e| format!("create {}: {e}", scratch.0.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        jobs: co_bench::effective_jobs(0),
        inject_delay: args.inject_delay,
        scratch: scratch.0.clone(),
    };
    eprintln!(
        "workload {} | seed {} | {} s | jobs {} | trace {} | inject-delay {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        ctx.jobs,
        u8::from(args.trace),
        args.inject_delay
    );

    let mut metrics: Vec<(String, Value)> = Vec::new();
    let (attempted, failed, failures);
    if args.trace {
        let mut tracer = trace::Tracer::new();
        let layers = match args.workload {
            Workload::Ring => ring::traced(&ctx, &mut tracer),
            Workload::Explore => explore::traced(&ctx, &mut tracer, false),
            Workload::ExploreDisk => explore::traced(&ctx, &mut tracer, true),
            Workload::Fleet => fleet::traced(&ctx, &mut tracer),
        };
        eprintln!(
            "{:<34} {:>16} {:>6} {:>10}",
            "metric", "value", "unit", "samples"
        );
        for (name, unit) in PER_LAYER {
            let (value, samples) = layers
                .values
                .iter()
                .find(|(n, _, _)| *n == name)
                .map_or((0.0, 0), |&(_, v, s)| (v, s));
            eprintln!("{name:<34} {value:>16.4} {unit:>6} {samples:>10}");
            metrics.push((name.to_owned(), metric(value, unit)));
        }
        eprintln!(
            "{:<34} {:>8} {:>14} {:>14}",
            "layer", "count", "total ms", "self ms"
        );
        for (name, (count, total, own)) in tracer.self_times() {
            eprintln!(
                "{name:<34} {count:>8} {:>14.3} {:>14.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        let path = root.join(format!(
            "trace-{}-s{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        tracer
            .write(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
        (attempted, failed, failures) = (layers.attempted, layers.failed, layers.failures);
    } else {
        let mut setups = Vec::with_capacity(SETUP_REPS);
        let mut m = None;
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            let plan = std::hint::black_box(match args.workload {
                Workload::Ring => Plan::Ring(ring::setup(&ctx)),
                Workload::Explore => Plan::Explore(explore::setup(&ctx, false)),
                Workload::ExploreDisk => Plan::Explore(explore::setup(&ctx, true)),
                Workload::Fleet => Plan::Fleet(fleet::setup(&ctx)),
            });
            setups.push(t0.elapsed().as_secs_f64());
            m = Some(plan);
        }
        let measured = match m.expect("at least one set-up") {
            Plan::Ring(p) => ring::measure(&ctx, &p),
            Plan::Explore(p) => explore::measure(&ctx, &p),
            Plan::Fleet(p) => fleet::measure(&ctx, &p),
        };
        if measured.rates.is_empty() || measured.items == 0 {
            return Err("no operation completed".into());
        }
        let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
        let values = [
            median_f64(measured.rates.clone()),
            percentile(&measured.ops, 0.5).as_secs_f64() * 1e3,
            percentile(&measured.ops, 0.9).as_secs_f64() * 1e3,
            rss,
            median_f64(setups),
        ];
        eprintln!(
            "{} latency samples, {} timed items",
            measured.ops.len(),
            measured.items
        );
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            let samples = match *name {
                "throughput_per_s" => measured.rates.len(),
                "setup_s" => SETUP_REPS,
                "peak_rss_mb" => 1,
                _ => measured.ops.len(),
            };
            eprintln!("{name:<20} {value:>16.4} {unit:>4}  ({samples} samples)");
            metrics.push(((*name).to_owned(), metric(value, unit)));
        }
        (attempted, failed, failures) = (measured.attempted, measured.failed, measured.failures);
    }

    eprintln!(
        "attempted {attempted}, failed {failed}, failed_ratio {}",
        failed as f64 / attempted.max(1) as f64
    );
    for f in &failures {
        eprintln!("check failed: {f}");
    }
    let correct = failures.is_empty() && failed == 0 && attempted > 0;
    let out = Value::Object(vec![
        ("correct".into(), Value::from(correct)),
        ("attempted".into(), Value::from(attempted)),
        ("failed".into(), Value::from(failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    Ok((correct, out))
}

enum Plan {
    Ring(ring::Plan),
    Explore(explore::Plan),
    Fleet(fleet::Plan),
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: co-perfbench --workload <ring|explore|explore-disk|fleet> --seed <n> \
                 --seconds <s> --trace <0|1> [--inject-delay <fraction>]"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((correct, out)) => {
            println!("{}", out.to_string_compact());
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
