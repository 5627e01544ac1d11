#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark: a base revision against
this checkout.

    python3 tools/perf_ab.py --base HEAD~1 --workload serve-mixed \\
        --pairs 10 --seconds 30 --seed0 1 --out ab-serve

The base side is `git archive REV` of this repository, unpacked into a
temporary directory; the change side is this checkout as it stands (its
working tree).  Each side runs its own perfbench/run.py with --trace 0
from its own root, so each builds into its own .bench_build (with
CARGO_TARGET_DIR unset).  Pair i runs seed K+i on both sides, and the
side that runs first alternates from pair to pair, so host drift lands
on both sides of a pair alike.

The tool fails (exit 1) if any run exits non-zero or reports
`correct: false`.  For every end-to-end metric of BENCHMARK.json it
prints each side's median and quartiles, the median of the paired
change/base ratios, the change's wins out of N (a win is a pair where
the change is better in the metric's direction; ties count for
neither), a 95% bootstrap interval of the median ratio (fixed seed, so
reruns print the same interval), whether the base's own spread (its
interquartile range over its median) is inside the metric's bound, and
whether the change's interquartile range is inside that bound taken on
the base's median (a change k times the base needs k times less
relative spread).  DIR
receives runs.jsonl (one line per run: pair, seed, side, result) and
summary.json.

With --record FILE (the committed history is perf/trajectory.jsonl)
the batch's summary is also appended to FILE as one JSON line: the
base's commit, the change's commit and whether its working tree had
uncommitted edits, the workload and run shape, and per metric the two
medians, the paired ratio and its interval, the wins and both spread
verdicts.  Chained paired ratios then give speed over many changes
without comparing absolute numbers taken on different days or hosts.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BOOTSTRAP_SAMPLES = 10000
BOOTSTRAP_SEED = 20231


def quartiles(values):
    """(q1, median, q3) of values, by linear interpolation."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def bootstrap_interval(ratios, samples=BOOTSTRAP_SAMPLES,
                       seed=BOOTSTRAP_SEED):
    """95% percentile-bootstrap interval of the median of ratios."""
    rng = random.Random(seed)
    n = len(ratios)
    medians = sorted(
        statistics.median(rng.choices(ratios, k=n)) for _ in range(samples))
    return medians[int(0.025 * samples)], medians[int(0.975 * samples) - 1]


def compare(metric, base, change):
    """Summary of one metric over paired base/change values."""
    if len(base) != len(change) or not base:
        raise ValueError("need one base and one change value per pair")
    lower = metric["better"] == "lower"
    ratios = [c / b if b else float("inf") for b, c in zip(base, change)]
    wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
    b1, b2, b3 = quartiles(base)
    c1, c2, c3 = quartiles(change)
    lo, hi = bootstrap_interval(ratios)
    spread = (b3 - b1) / b2 if b2 else float("inf")
    # The change's interquartile range, in the metric's own units, must
    # also fit the bound taken on the base's median: a change k times
    # the base needs k times less relative spread to be told apart.
    steady = (c3 - c1) <= metric["bound"] * b2
    return {
        "metric": metric["name"], "unit": metric["unit"],
        "better": metric["better"], "pairs": len(base),
        "base_median": b2, "base_q1": b1, "base_q3": b3,
        "change_median": c2, "change_q1": c1, "change_q3": c3,
        "median_ratio": statistics.median(ratios), "wins": wins,
        "ci95": [lo, hi], "base_spread": spread,
        "bound": metric["bound"], "resolved": spread <= metric["bound"],
        "change_steady": steady,
    }


def check_run(result, label):
    """Raise unless a run's result line says every result checked out."""
    if not isinstance(result, dict) or result.get("correct") is not True:
        raise RuntimeError(f"{label}: run not correct: {result!r}")


def summarize(metrics, runs):
    """Per-metric comparison of runs, a list of (base, change) results."""
    for i, (base, change) in enumerate(runs):
        check_run(base, f"pair {i} base")
        check_run(change, f"pair {i} change")
    return [compare(m,
                    [b["metrics"][m["name"]]["value"] for b, _ in runs],
                    [c["metrics"][m["name"]]["value"] for _, c in runs])
            for m in metrics]


def run_side(tree, workload, seed, seconds):
    """One perfbench run in tree; returns its result object."""
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1])


def git(*args):
    """Output of a git command run in this repository."""
    return subprocess.run(["git", "-C", ROOT, *args], stdout=subprocess.PIPE,
                          text=True, check=True).stdout.strip()


def trajectory_entry(base_sha, change_sha, change_dirty, workload, seconds,
                     seed0, failed, rows):
    """One perf/trajectory.jsonl line: a batch's summary."""
    return {
        "base": base_sha, "change": change_sha,
        "change_dirty": change_dirty, "workload": workload,
        "pairs": rows[0]["pairs"] if rows else 0, "seconds": seconds,
        "seed0": seed0, "failed_of_attempted": failed,
        "metrics": {r["metric"]: {
            "base_median": r["base_median"],
            "change_median": r["change_median"],
            "ratio": r["median_ratio"], "ci95": r["ci95"],
            "wins": r["wins"], "base_resolved": r["resolved"],
            "change_steady": r["change_steady"]} for r in rows},
    }


def append_record(path, entry):
    """Append entry to the JSON-lines file at path."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "a") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")


def export_base(rev, dest):
    """Unpack `git archive rev` of this repository into dest."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             stdout=subprocess.PIPE, check=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def fmt(v):
    return f"{v:.4g}"


def print_summary(workload, rows):
    print(f"{workload}: change/base over {rows[0]['pairs']} pairs")
    for r in rows:
        verdict = "" if r["resolved"] else "  (base spread over bound)"
        if not r["change_steady"]:
            verdict += "  (change spread over bound)"
        print(f"  {r['metric']} [{r['unit']}, {r['better']} is better]: "
              f"base {fmt(r['base_median'])} "
              f"({fmt(r['base_q1'])}-{fmt(r['base_q3'])}), "
              f"change {fmt(r['change_median'])} "
              f"({fmt(r['change_q1'])}-{fmt(r['change_q3'])}), "
              f"ratio {r['median_ratio']:.3f} "
              f"[{r['ci95'][0]:.3f}, {r['ci95'][1]:.3f}], "
              f"wins {r['wins']}/{r['pairs']}{verdict}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--seed0", required=True, type=int,
                    help="seed of the first pair; pair i runs seed0 + i")
    ap.add_argument("--out", required=True, help="directory for results")
    ap.add_argument("--record", metavar="FILE",
                    help="append the batch summary to this JSON-lines "
                         "file (perf/trajectory.jsonl)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    os.makedirs(args.out, exist_ok=True)
    base_tree = tempfile.mkdtemp(prefix="perf_ab_base_")
    runs = []
    try:
        export_base(args.base, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        with open(os.path.join(args.out, "runs.jsonl"), "w") as log:
            for i in range(args.pairs):
                seed = args.seed0 + i
                order = ("base", "change") if i % 2 == 0 else \
                        ("change", "base")
                pair = {}
                for side in order:
                    pair[side] = run_side(trees[side], args.workload, seed,
                                          args.seconds)
                    log.write(json.dumps({"pair": i, "seed": seed,
                                          "side": side,
                                          "result": pair[side]}) + "\n")
                    log.flush()
                    check_run(pair[side], f"{side} seed {seed}")
                runs.append((pair["base"], pair["change"]))
                print(f"pair {i + 1}/{args.pairs} (seed {seed}) done",
                      file=sys.stderr)
    except (RuntimeError, ValueError, subprocess.CalledProcessError) as e:
        print(f"perf_ab: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(base_tree, ignore_errors=True)

    rows = summarize(metrics, runs)
    failed = {side: [sum(r[k][key] for r in runs) for key in
                     ("failed", "attempted")]
              for k, side in enumerate(("base", "change"))}
    with open(os.path.join(args.out, "summary.json"), "w") as f:
        json.dump({"base": args.base, "workload": args.workload,
                   "seconds": args.seconds, "seed0": args.seed0,
                   "failed_of_attempted": failed, "metrics": rows}, f,
                  indent=1)
    print_summary(args.workload, rows)
    print(f"  failed/attempted: base {failed['base'][0]}/"
          f"{failed['base'][1]}, change {failed['change'][0]}/"
          f"{failed['change'][1]}")
    if args.record:
        append_record(args.record, trajectory_entry(
            git("rev-parse", args.base + "^{commit}"),
            git("rev-parse", "HEAD"), bool(git("status", "--porcelain")),
            args.workload, args.seconds, args.seed0, failed, rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
