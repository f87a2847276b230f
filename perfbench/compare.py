#!/usr/bin/env python3
"""Run the benchmark over several seeds, measure its spread, and compare runs.

Run from the repository root:

  python3 perfbench/compare.py run --workload ring --seeds 1-10 --out a.json
      Runs the BENCHMARK.json command once per seed and saves every result.
      Prints, per end-to-end metric, the median, the quartiles and the
      spread (quartile distance / median) next to the metric's bound.

  python3 perfbench/compare.py diff a.json b.json
      Flags every metric whose median in b is worse than in a by more than
      its bound. Exits 1 if any metric is flagged.

  python3 perfbench/compare.py selfcheck --workload ring --seeds 1-5
      The regression self-check: runs two clean sets and one set with
      `--inject-delay 0.3` (each timed operation padded by 30 %), seeds
      interleaved. Passes when the clean sets are not flagged against each
      other and the delayed set is flagged on every timed metric.

Quartiles are Python's statistics.quantiles(values, n=4).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

BENCHMARK = "BENCHMARK.json"
# End-to-end metrics a padded operation moves; the others (peak_rss_mb,
# setup_s) are measured outside the timed operations.
TIMED = ("throughput_per_s", "op_ms_p50", "op_ms_p90")


def load_benchmark():
    with open(BENCHMARK) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(bench, workload, seed, seconds, trace, delay):
    argv = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if delay:
        argv += ["--inject-delay", str(delay)]
    t0 = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return {"seed": seed, "wall_s": wall, "delay": delay, "result": result}


def values(runs, name):
    return [r["result"]["metrics"][name]["value"] for r in runs]


def summarize(bench, runs):
    print(f"{'metric':<20} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    ok = True
    for m in bench["end_to_end"]:
        v = values(runs, m["name"])
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        note = ""
        if m["name"] != "setup_s" and spread > m["bound"]:
            note, ok = "  OVER BOUND", False
        elif m["name"] != "setup_s" and spread > m["bound"] / 3:
            note = "  over a third of the bound"
        print(f"{m['name']:<20} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} "
              f"{spread:>8.4f} {m['bound']:>6}{note}")
    walls = [r["wall_s"] for r in runs]
    print(f"run wall time: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    return ok


def diff(bench, base, new):
    flagged = []
    print(f"{'metric':<20} {'base':>14} {'new':>14} {'worse by':>9} {'bound':>6}")
    for m in bench["end_to_end"]:
        b = statistics.median(values(base, m["name"]))
        n = statistics.median(values(new, m["name"]))
        worse = (n - b) / b if m["better"] == "lower" else (b - n) / b
        flag = worse > m["bound"]
        if flag:
            flagged.append(m["name"])
        print(f"{m['name']:<20} {b:>14.4f} {n:>14.4f} {worse:>9.4f} {m['bound']:>6}"
              f"{'  FLAGGED' if flag else ''}")
    return flagged


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name in ("run", "selfcheck"):
        p = sub.add_parser(name)
        p.add_argument("--workload", required=True)
        p.add_argument("--seeds", default="1-10")
        p.add_argument("--seconds", type=int)
        p.add_argument("--trace", type=int, default=0)
        p.add_argument("--out")
        if name == "run":
            p.add_argument("--inject-delay", type=float, default=0.0)
        else:
            p.add_argument("--delay", type=float, default=0.3)
    p = sub.add_parser("diff")
    p.add_argument("base")
    p.add_argument("new")
    args = ap.parse_args()

    bench = load_benchmark()
    if args.cmd == "diff":
        with open(args.base) as f:
            base = json.load(f)
        with open(args.new) as f:
            new = json.load(f)
        return 1 if diff(bench, base, new) else 0

    seconds = args.seconds or bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    if args.cmd == "run":
        runs = []
        for s in seeds:
            runs.append(run_once(bench, args.workload, s, seconds, args.trace,
                                 args.inject_delay))
            print(f"seed {s}: {runs[-1]['result']['metrics']}", flush=True)
        if args.out:
            with open(args.out, "w") as f:
                json.dump(runs, f, indent=1)
        if args.trace == 0:
            return 0 if summarize(bench, runs) else 1
        return 0

    sets = {"clean-a": [], "clean-b": [], "delayed": []}
    for s in seeds:
        for label, delay in (("clean-a", 0.0), ("delayed", args.delay), ("clean-b", 0.0)):
            sets[label].append(run_once(bench, args.workload, s, seconds, 0, delay))
            print(f"{label} seed {s}: {sets[label][-1]['result']['metrics']}", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(sets, f, indent=1)
    print("\nclean-a vs clean-b (expect nothing flagged):")
    clean = diff(bench, sets["clean-a"], sets["clean-b"])
    print(f"\nclean-a vs delayed {args.delay} (expect {', '.join(TIMED)} flagged):")
    delayed = diff(bench, sets["clean-a"], sets["delayed"])
    ok = not clean and all(m in delayed for m in TIMED)
    print(f"\nself-check {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
