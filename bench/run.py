"""End-to-end and per-layer benchmark of flks.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a flks checkout; flks is imported from its ``src``.
One warm-up pass is run and checked but not timed.  Then, with
``--trace 0``, passes repeat until ``--seconds`` have elapsed and the
end-to-end metrics are reported as medians over the timed passes.  With
``--trace 1``, untraced and traced passes alternate and the per-layer
metrics come from the traced ones (see tracing.py).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

wall_s, cpu_s and setup_s are in reference seconds (see
workloads.CAL_REF_S): each measured time is scaled by the speed of the
machine at that moment, taken from a calibration kernel run between
operations.  wall_s (cpu_s) is the sum over the pass's operations of each
operation's median scaled wall (CPU) time.  Raw seconds, per-operation
medians, quartiles and sample counts are printed above the JSON line.
setup_s is the median over fresh interpreters, each timing ``import flks``
through building the workload's inputs.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DEFAULT_ROOT = os.path.dirname(BENCH_DIR)

# name -> (unit, better); BENCHMARK.json declares the same names
END_TO_END = {
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("ratio", "higher"),
}
SETUP_PROBES = {"full": 7, "tiny": 1}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(SETUP_PROBES), default="full",
                   help="tiny exercises every operation quickly; for tests only")
    p.add_argument("--root", default=DEFAULT_ROOT,
                   help="checkout whose src/flks is measured (default: this one)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _use_source(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "flks", "__init__.py")):
        sys.exit(f"bench: no flks sources under {src}; run from a flks checkout")
    sys.path.insert(0, src)


def _setup_probe(args, workdir):
    """Child mode: time import flks through a built workload, then run the
    calibration kernel in this same process (so on the same core)."""
    t0 = time.perf_counter()
    import flks  # noqa: F401
    import workloads

    workloads.build(args.workload, args.seed, workdir, args.scale)
    setup_s = time.perf_counter() - t0
    print(json.dumps({"setup_s": setup_s, "calibration_s": workloads.calibration()[0]}))


def _measure_setup(args, workdir):
    """Raw and calibrated set-up seconds of fresh interpreters."""
    import workloads

    raw, cal = [], []
    for k in range(SETUP_PROBES[args.scale]):
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--scale", args.scale, "--root", args.root,
               "--workdir", os.path.join(workdir, f"probe{k}")]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              cwd=args.root, timeout=120, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(probe["setup_s"])
        cal.append(probe["setup_s"] * workloads.CAL_REF_S / probe["calibration_s"])
    return raw, cal


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _report(label, name, unit, values):
    q1, med, q3 = _quartiles(values)
    print(f"{label:10s} {name:26s} median {med:.6g} {unit}  "
          f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
    return med


def _print_outcomes(passes):
    for i, out in enumerate(passes[-1].outcomes):
        state = "ok" if out.ok else f"FAILED exit={out.exit_code} checks={out.failed_checks}"
        stable = len({p.outcomes[i].digest for p in passes}) == 1
        print(f"op         {out.op:26s} {state}  sha256 {out.digest}"
              f"{'' if stable else ' (differs between passes)'}")


def main(argv=None):
    args = _parse_args(argv)
    args.root = os.path.abspath(args.root)
    _use_source(args.root)
    workdir = args.workdir or os.path.join(
        args.root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    if args.setup_probe:
        try:
            _setup_probe(args, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    import workloads

    if args.workload not in workloads.NAMES:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.NAMES)}")
    try:
        wl = workloads.build(args.workload, args.seed, workdir, args.scale)
        passes = [wl.run_pass()]  # warm-up: checked and counted, not timed
        result = (_traced if args.trace else _untraced)(args, wl, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, correct, _ = workloads.tally(
        [o for p in passes for o in p.outcomes])
    _print_outcomes(passes)
    print(f"ops        attempted {attempted}  failed {failed}  "
          f"fail_frac {failed / attempted:.6g}  correct {correct}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


def _timed_loop(seconds, one_round):
    t0 = time.perf_counter()
    while True:
        one_round()
        if time.perf_counter() - t0 >= seconds:
            return


def _per_op_medians(passes, which):
    """Median over passes of each operation's scaled time (0 wall, 1 cpu)."""
    columns = zip(*(p.scaled()[which] for p in passes))
    return [statistics.median(col) for col in columns]


def _untraced(args, wl, passes):
    import workloads

    setup = _measure_setup(args, wl.workdir)
    timed = []

    def one_round():
        timed.append(wl.run_pass())

    _timed_loop(args.seconds, one_round)
    passes.extend(timed)
    _, _, _, ok_frac = workloads.tally([o for p in passes for o in p.outcomes])
    for i, op in enumerate(wl.ops):
        _report("op_raw", op.name, "s", [p.op_wall_s[i] for p in timed])
        _report("op_ref", op.name, "s", [p.scaled()[0][i] for p in timed])
    _report("raw", "wall_s", "s", [p.wall_s for p in timed])
    _report("raw", "cpu_s", "s", [p.cpu_s for p in timed])
    _report("raw", "setup_s", "s", setup[0])
    _report("raw", "calibration_s", "s", [c for p in timed for c in p.cal_wall_s])
    _report("ref", "setup_s", "s", setup[1])
    metrics = {
        "wall_s": sum(_per_op_medians(timed, 0)),
        "cpu_s": sum(_per_op_medians(timed, 1)),
        "setup_s": statistics.median(setup[1]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": ok_frac,
    }
    for name, value in metrics.items():
        print(f"end2end    {name:26s} {value:.6g} {END_TO_END[name][0]}")
    return {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in metrics.items()}


def _traced(args, wl, passes):
    import tracing

    tracer = tracing.Tracer()
    plain, traced, tables = [], [], []

    def one_round():
        plain.append(wl.run_pass())
        lo = len(tracer.start)
        tracer.install()
        try:
            p = wl.run_pass(tracer)
        finally:
            tracer.uninstall()
        traced.append(p)
        tables.append((lo, len(tracer.start), tracer.take_counters(), p.wall_s))

    _timed_loop(args.seconds, one_round)
    passes.extend(plain + traced)

    per_pass = []
    for lo, hi, counters, wall in tables:
        table = tracing.span_table(tracer, lo, hi)
        per_pass.append(tracing.layer_metrics(table, counters, wall))
    last_shares = tracing.self_time_shares(table, wall)
    trace_dir = os.path.join(args.root, ".bench_work", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    tracer.save(os.path.join(trace_dir, f"{args.workload}.npz"))

    metrics = {}
    for name in per_pass[0]:
        vals = [m[name] for m in per_pass]
        metrics[name] = statistics.median(vals)
    metrics["trace.overhead_frac"] = (
        sum(_per_op_medians(traced, 0)) / sum(_per_op_medians(plain, 0)) - 1.0)
    for name, (unit, _, moves) in tracing.LAYER_METRICS.items():
        print(f"layer      {name:26s} {metrics[name]:<14.6g} {unit:7s} moves {moves}")
    print(f"trace      passes: {len(plain)} untraced, {len(traced)} traced; self time "
          f"per span as a share of the last traced pass (sweep threads overlap, "
          f"so shares can sum past 100%):")
    for name, share in last_shares.items():
        if share >= 0.005:
            print(f"share      {name:26s} {share:7.1%}")
    return {k: {"value": metrics[k], "unit": v[0]}
            for k, v in tracing.LAYER_METRICS.items()}


if __name__ == "__main__":
    sys.exit(main())
