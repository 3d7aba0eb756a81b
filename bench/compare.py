"""Steadiness check and parent/change comparison for the flks benchmark.

    python3 bench/compare.py --runs 10
    python3 bench/compare.py --runs 10 --baseline ../parent-checkout

Each run is one ``bench/run.py`` process with its own seed (``--seed``,
``--seed + 1``, ...); run.py itself leaves its warm-up pass out of the
timings.  Without ``--baseline`` this prints, per workload and end-to-end
metric, the median, the quartiles and the quartile spread as a share of the
median next to the metric's bound in BENCHMARK.json.  With ``--baseline``,
each seed runs on both checkouts with this benchmark code, alternating
which side goes first, and the change's pair wins and median shift are
printed as well.  ``--out`` writes every run's result as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_once(root, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--root", root]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=root, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def _values(results, name):
    return [r["metrics"][name]["value"] for r in results]


def _wins(change, parent, better):
    wins = 0
    for c, p in zip(change, parent):
        if (c < p) if better == "lower" else (c > p):
            wins += 1
    return wins


def main(argv=None):
    decl = _declared()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=decl["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--baseline", help="parent checkout to compare against")
    p.add_argument("--out", help="write all results to this JSON file")
    args = p.parse_args(argv)

    workloads = args.workload or [w["name"] for w in decl["workloads"]]
    metrics = decl["per_layer" if args.trace else "end_to_end"]
    sides = {"change": ROOT}
    if args.baseline:
        sides["parent"] = os.path.abspath(args.baseline)
    results = {side: {w: [] for w in workloads} for side in sides}

    for w in workloads:
        for i in range(args.runs):
            seed = args.seed + i
            order = list(sides) if i % 2 == 0 else list(reversed(sides))
            for side in order:
                res = run_once(sides[side], w, seed, args.seconds, args.trace)
                results[side][w].append(res)
                print(f"# {w} seed {seed} {side}: correct {res['correct']} "
                      f"failed {res['failed']}/{res['attempted']}", file=sys.stderr)

        print(f"\n{w}  ({args.runs} runs of {args.seconds} s, seeds "
              f"{args.seed}..{args.seed + args.runs - 1})")
        for m in metrics:
            name = m["name"]
            line = []
            for side in sides:
                med, q1, q3, rel = spread(_values(results[side][w], name))
                line.append(f"{side} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                            f"spread {rel:.2%}")
            bound = m.get("bound")
            text = f"  {name:24s} {m['unit']:6s} " + " | ".join(line)
            if bound is not None:
                text += f"  bound {bound:.0%}"
            if args.baseline:
                ch, pa = _values(results["change"][w], name), _values(results["parent"][w], name)
                shift = statistics.median(ch) / statistics.median(pa) - 1.0
                text += (f"  change wins {_wins(ch, pa, m['better'])}/{len(ch)}"
                         f"  median shift {shift:+.2%}")
            print(text)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({"seconds": args.seconds, "trace": args.trace, "results": results},
                      f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
