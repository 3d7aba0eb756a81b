"""Per-layer tracing of flks from outside the library.

Public functions are wrapped at the module attribute where their caller
looks them up (``exact_solutions.picard_iterate`` as well as
``reduced_systems.picard_iterate``, because both modules bind the name with
``from .quadrature import ...``; methods at their class).  Each call records
a span: name, start, end, parent, thread and the id of the operation it
belongs to.  Spans stay in memory and are written out when the run ends.

Worker threads do not inherit context variables, so a span that starts in a
thread with no open span takes the open ``cli.sweep`` span as its parent
(set explicitly by the sweep's wrapper).
"""

import contextlib
import functools
import threading
import time
from array import array
import contextvars

import numpy as np

from flks import (
    cli,
    core,
    exact_solutions,
    lie_toolkit,
    limiters,
    pde_solver,
    quadrature,
    reduced_systems,
    verify,
)

# per-layer metric -> (unit, better, the end-to-end metric and workload it moves)
LAYER_METRICS = {
    "pde.run_s": ("s", "lower", "wall_s, cpu_s on pde_march; minor on trajectory_io"),
    "pde.run_self_s": ("s", "lower", "wall_s on pde_march (frame copies, mass ledger)"),
    "pde.steps": ("count", "lower", "wall_s, cpu_s on pde_march; none on closure_quadrature"),
    "pde.step_us": ("us", "lower", "wall_s, cpu_s on pde_march"),
    "pde.step_self_s": ("s", "lower", "wall_s, cpu_s on pde_march"),
    "pde.node_steps_per_s": ("1/s", "higher", "wall_s on pde_march"),
    "pde.frames": ("count", "lower", "wall_s, peak_rss_mb on trajectory_io"),
    "pde.dt_bound_ratio": ("ratio", "higher", "wall_s on pde_march (diffusive/advective dt bound)"),
    "pde.mass_drift": ("ratio", "lower", "ok_frac on pde_march and trajectory_io"),
    "pde.min_u": ("density", "higher", "(recorded only; not a check)"),
    "limiters.F_calls": ("count", "lower", "wall_s on pde_march"),
    "limiters.F_s": ("s", "lower", "wall_s on pde_march"),
    "cli.export_s": ("s", "lower", "wall_s, peak_rss_mb on trajectory_io; ~1% of pde_march"),
    "cli.export_rows": ("count", "lower", "wall_s on trajectory_io"),
    "cli.export_rows_per_s": ("rows/s", "higher", "wall_s on trajectory_io"),
    "cli.export_mb": ("MB", "lower", "wall_s on trajectory_io"),
    "cli.import_s": ("s", "lower", "wall_s, peak_rss_mb on trajectory_io"),
    "cli.import_rows_per_s": ("rows/s", "higher", "wall_s on trajectory_io"),
    "cli.exact_self_s": ("s", "lower", "wall_s on trajectory_io (cmd_exact's own writer)"),
    "cli.plot_script_s": ("s", "lower", "wall_s on trajectory_io"),
    "cli.parse_s": ("s", "lower", "wall_s on every workload (small)"),
    "cli.sweep_s": ("s", "lower", "wall_s, cpu_s on pde_march"),
    "cli.sweep_parallel_eff": ("ratio", "higher", "wall_s on pde_march"),
    "quad.picard_calls": ("count", "lower", "wall_s on closure_quadrature"),
    "quad.picard_iters": ("count", "lower", "wall_s on closure_quadrature"),
    "quad.picard_s": ("s", "lower", "wall_s on closure_quadrature"),
    "quad.picard_map_s": ("s", "lower", "wall_s on closure_quadrature"),
    "quad.picard_failed": ("count", "lower", "ok_frac on closure_quadrature"),
    "quad.simpson_calls": ("count", "lower", "wall_s on closure_quadrature"),
    "quad.simpson_evals": ("count", "lower", "wall_s on closure_quadrature"),
    "quad.simpson_s": ("s", "lower", "wall_s on closure_quadrature"),
    "quad.ei_calls": ("count", "lower", "wall_s on trajectory_io (case IV samples)"),
    "quad.ei_s": ("s", "lower", "wall_s on trajectory_io"),
    "quad.exp_kernel_s": ("s", "lower", "wall_s on closure_quadrature"),
    "core.decay_calls": ("count", "lower", "wall_s on closure_quadrature and pde_march"),
    "core.decay_s": ("s", "lower", "wall_s on closure_quadrature (tabulated integrand)"),
    "exact.tw_s": ("s", "lower", "wall_s on closure_quadrature"),
    "exact.tw_iters": ("count", "lower", "wall_s on closure_quadrature"),
    "reduced.self_similar_s": ("s", "lower", "wall_s on closure_quadrature"),
    "reduced.self_similar_iters": ("count", "lower", "wall_s on closure_quadrature"),
    "reduced.steady_s": ("s", "lower", "wall_s on closure_quadrature"),
    "reduced.newton_iters": ("count", "lower", "wall_s on closure_quadrature"),
    "verify.residual_s": ("s", "lower", "wall_s on closure_quadrature"),
    "verify.residual_calls": ("count", "lower", "wall_s on closure_quadrature"),
    "lie.optimal_s": ("s", "lower", "wall_s on closure_quadrature"),
    "trace.wall_s": ("s", "lower", "(base of the traced shares)"),
    "trace.overhead_frac": ("ratio", "lower", "(none: traced wall / untraced wall - 1)"),
}


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.thread = array("Q")
        self.op = array("q")
        self.counters = {}
        self._current = contextvars.ContextVar("bench_span", default=-1)
        self._lock = threading.Lock()
        self._patches = []
        self.thread_parent = -1
        self.op_id = -1

    # -- spans --------------------------------------------------------------

    def begin(self, name):
        parent = self._current.get()
        if parent < 0:
            parent = self.thread_parent
        with self._lock:
            nid = self._ids.get(name)
            if nid is None:
                nid = self._ids[name] = len(self.names)
                self.names.append(name)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(parent)
            self.thread.append(threading.get_ident())
            self.op.append(self.op_id)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        return idx, self._current.set(idx)

    def finish(self, idx, token):
        self.end[idx] = time.perf_counter()
        self._current.reset(token)

    @contextlib.contextmanager
    def operation(self):
        """All spans opened inside share one operation id."""
        self.op_id += 1
        idx, token = self.begin("op")
        try:
            yield
        finally:
            self.finish(idx, token)

    # -- counters -----------------------------------------------------------

    def add(self, key, value):
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + value

    def extreme(self, key, value, pick):
        with self._lock:
            old = self.counters.get(key)
            self.counters[key] = value if old is None else pick(old, value)

    def take_counters(self):
        with self._lock:
            out, self.counters = self.counters, {}
        return out

    # -- patching -----------------------------------------------------------

    def wrap(self, owner, attr, name, on_return=None, on_error=None, map_args=None,
             adopt_threads=False):
        """Replace owner.attr (or owner[attr] for a dict) by a traced wrapper.

        With adopt_threads, spans opened by worker threads while the call
        runs take its span as their parent.
        """
        is_dict = isinstance(owner, dict)
        orig = owner[attr] if is_dict else (
            owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr))
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if map_args is not None:
                args, kwargs = map_args(args, kwargs)
            idx, token = tracer.begin(name)
            if adopt_threads:
                tracer.thread_parent = idx
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            finally:
                if adopt_threads:
                    tracer.thread_parent = -1
                tracer.finish(idx, token)
            if on_return is not None:
                on_return(tracer, result, args, kwargs)
            return result

        if is_dict:
            owner[attr] = traced
        else:
            setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig, is_dict))
        return traced

    def install(self):
        _install(self)

    def uninstall(self):
        while self._patches:
            owner, attr, orig, is_dict = self._patches.pop()
            if is_dict:
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)

    # -- output -------------------------------------------------------------

    def save(self, path):
        np.savez(
            path,
            names=np.asarray(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            thread=np.frombuffer(self.thread, dtype=np.uint64),
            op=np.frombuffer(self.op, dtype=np.int64),
        )


# ---------------------------------------------------------------------------
# what gets wrapped, and the counts read off arguments and results
# ---------------------------------------------------------------------------

def _on_run(tr, traj, args, kwargs):
    params, config = args[1], args[2]
    steps = int(traj.steps_taken)
    tr.add("pde.steps", steps)
    tr.add("pde.node_steps", steps * traj.us.shape[1])
    tr.add("pde.frames", int(traj.times.size))
    dx = config.grid.dx
    diffusive = dx * dx / (2.0 * max(params.D, 1.0 / params.tau))
    advective = dx * params.limiter.gradient_scale / params.limiter.v_max
    tr.extreme("pde.dt_bound_ratio", diffusive / advective, min)
    mass = np.asarray(traj.mass)
    tr.extreme("pde.mass_drift", float(np.max(np.abs(mass - mass[0])) / abs(mass[0])), max)
    tr.extreme("pde.min_u", float(np.min(traj.min_u)), min)


def _on_export(tr, path, args, kwargs):
    with open(path, "rb") as f:
        data = f.read()
    header, pos = 0, 0
    while data.startswith(b"#", pos):
        pos = data.index(b"\n", pos) + 1
        header += 1
    tr.add("cli.export_rows", data.count(b"\n") - header - 1)
    tr.add("cli.export_bytes", len(data))


def _on_import(tr, result, args, kwargs):
    cols = result[1]
    tr.add("cli.import_rows", len(next(iter(cols.values()))) if cols else 0)


def _on_picard(tr, res, args, kwargs):
    tr.add("quad.picard_iters", res.iterations)


def _on_picard_error(tr, exc):
    tr.add("quad.picard_failed", 1)
    tr.add("quad.picard_iters", len(getattr(exc, "history", ())))


def _picard_map_args(tracer):
    def map_args(args, kwargs):
        if "map_fn" in kwargs:
            kwargs = dict(kwargs, map_fn=_traced_fn(tracer, kwargs["map_fn"]))
        else:
            args = (_traced_fn(tracer, args[0]),) + tuple(args[1:])
        return args, kwargs

    return map_args


def _traced_fn(tracer, fn):
    def traced(*a, **k):
        idx, token = tracer.begin("quad.picard_map")
        try:
            return fn(*a, **k)
        finally:
            tracer.finish(idx, token)

    return traced


def _install(tr):
    w = tr.wrap
    w(pde_solver, "run", "pde.run", on_return=_on_run)
    w(pde_solver, "step", "pde.step")
    for cls in (limiters.TanhLimiter, limiters.AlgebraicSqrtLimiter,
                limiters.WeberFechnerLogLimiter, limiters.TanhLogLimiter):
        w(cls, "F", "limiters.F")
    for cls in (core.ConstantDecay, core.PowerLawDecay, core.ExponentialDecay,
                core.TabulatedDecay):
        w(cls, "kappa", "core.decay")
        w(cls, "cumulative", "core.decay")

    w(cli, "main", "cli.main")
    w(cli, "parse_config", "cli.parse")
    w(cli, "apply_overrides", "cli.parse")
    w(cli, "export_csv", "cli.export", on_return=_on_export)
    w(cli, "import_csv", "cli.import", on_return=_on_import)
    w(cli, "emit_plot_script", "cli.plot_script")
    commands = cli._COMMANDS  # main and cmd_sweep dispatch through this table
    for command in ("simulate", "exact", "reduce", "verify", "lie"):
        w(commands, command, f"cli.{command}")
    w(commands, "sweep", "cli.sweep", adopt_threads=True)

    for mod in (exact_solutions, reduced_systems, quadrature):
        w(mod, "picard_iterate", "quad.picard", on_return=_on_picard,
          on_error=_on_picard_error, map_args=_picard_map_args(tr))
    w(quadrature, "integrate_adaptive", "quad.simpson",
      on_return=lambda t, r, a, k: t.add("quad.simpson_evals", r.evaluations))
    for mod in (exact_solutions, quadrature):
        w(mod, "exp_integral_Ei", "quad.ei")
    w(exact_solutions, "exp_kernel_lower", "quad.exp_kernel")
    w(exact_solutions, "exp_kernel_upper", "quad.exp_kernel")

    w(exact_solutions, "case2_travelling_tanh", "exact.tw",
      on_return=lambda t, r, a, k: t.add("exact.tw_iters", len(r.residual_history)))
    w(reduced_systems, "solve_self_similar", "reduced.self_similar",
      on_return=lambda t, r, a, k: t.add("reduced.self_similar_iters",
                                         len(r.residual_history)))
    w(reduced_systems, "solve_steady_state", "reduced.steady",
      on_return=lambda t, r, a, k: t.add("reduced.newton_iters", r.iterations))
    w(verify, "pde_residual", "verify.residual")
    w(lie_toolkit, "verify_optimal_system", "lie.optimal")


# ---------------------------------------------------------------------------
# reduction of one traced pass to the per-layer metrics
# ---------------------------------------------------------------------------

def span_table(tr, lo, hi):
    """Arrays for spans lo..hi-1 with durations and self times.

    Self time is the duration minus the part of it covered by child spans;
    children running in parallel threads are merged before subtracting.
    """
    names = np.asarray(tr.names + ["<none>"])
    nid = np.frombuffer(tr.name_id, dtype=np.int32)[lo:hi]
    start = np.frombuffer(tr.start, dtype=np.float64)[lo:hi]
    end = np.frombuffer(tr.end, dtype=np.float64)[lo:hi]
    parent = np.frombuffer(tr.parent, dtype=np.int64)[lo:hi] - lo
    thread = np.frombuffer(tr.thread, dtype=np.uint64)[lo:hi]
    dur = end - start
    covered = np.zeros(hi - lo)
    has_parent = parent >= 0
    order = np.lexsort((start[has_parent], parent[has_parent]))
    kids = np.flatnonzero(has_parent)[order]
    kp = parent[kids]
    ks, ke = start[kids], end[kids]
    same = kp[1:] == kp[:-1]
    overlap = same & (ks[1:] < ke[:-1])
    np.add.at(covered, kp, dur[kids])
    for p in np.unique(kp[1:][overlap]):
        sel = kids[kp == p]
        total, reach = 0.0, -np.inf
        for s, e in sorted(zip(start[sel], end[sel])):
            if e > reach:
                total += e - max(s, reach)
                reach = e
        covered[p] = total
    return {
        "name": names[nid], "dur": dur, "self": dur - covered,
        "parent": parent, "thread": thread,
    }


def layer_metrics(table, counters, pass_wall):
    name, dur, self_ = table["name"], table["dur"], table["self"]

    def total(n):
        return float(dur[name == n].sum())

    def calls(n):
        return int(np.count_nonzero(name == n))

    def self_total(n):
        return float(self_[name == n].sum())

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    c = counters
    steps = int(c.get("pde.steps", 0))
    step_s = total("pde.step")
    export_s = total("cli.export")
    import_s = total("cli.import")

    sweep_idx = np.flatnonzero(name == "cli.sweep")
    member_s = 0.0
    capacity = 0.0
    for i in sweep_idx:
        members = np.flatnonzero(table["parent"] == i)
        member_s += float(dur[members].sum())
        workers = len(set(table["thread"][members].tolist()))
        capacity += float(dur[i]) * workers

    return {
        "pde.run_s": total("pde.run"),
        "pde.run_self_s": self_total("pde.run"),
        "pde.steps": steps,
        "pde.step_us": ratio(step_s, steps) * 1e6,
        "pde.step_self_s": self_total("pde.step"),
        "pde.node_steps_per_s": ratio(c.get("pde.node_steps", 0), step_s),
        "pde.frames": int(c.get("pde.frames", 0)),
        "pde.dt_bound_ratio": float(c.get("pde.dt_bound_ratio", 0.0)),
        "pde.mass_drift": float(c.get("pde.mass_drift", 0.0)),
        "pde.min_u": float(c.get("pde.min_u", 0.0)),
        "limiters.F_calls": calls("limiters.F"),
        "limiters.F_s": total("limiters.F"),
        "cli.export_s": export_s,
        "cli.export_rows": int(c.get("cli.export_rows", 0)),
        "cli.export_rows_per_s": ratio(c.get("cli.export_rows", 0), export_s),
        "cli.export_mb": c.get("cli.export_bytes", 0) / 1e6,
        "cli.import_s": import_s,
        "cli.import_rows_per_s": ratio(c.get("cli.import_rows", 0), import_s),
        "cli.exact_self_s": self_total("cli.exact"),
        "cli.plot_script_s": total("cli.plot_script"),
        "cli.parse_s": total("cli.parse"),
        "cli.sweep_s": total("cli.sweep"),
        "cli.sweep_parallel_eff": ratio(member_s, capacity),
        "quad.picard_calls": calls("quad.picard"),
        "quad.picard_iters": int(c.get("quad.picard_iters", 0)),
        "quad.picard_s": total("quad.picard"),
        "quad.picard_map_s": total("quad.picard_map"),
        "quad.picard_failed": int(c.get("quad.picard_failed", 0)),
        "quad.simpson_calls": calls("quad.simpson"),
        "quad.simpson_evals": int(c.get("quad.simpson_evals", 0)),
        "quad.simpson_s": total("quad.simpson"),
        "quad.ei_calls": calls("quad.ei"),
        "quad.ei_s": total("quad.ei"),
        "quad.exp_kernel_s": total("quad.exp_kernel"),
        "core.decay_calls": calls("core.decay"),
        # decay spans nest only in each other (cumulative checks its range
        # with kappa), so the sum of their self times is the layer's time
        "core.decay_s": self_total("core.decay"),
        "exact.tw_s": total("exact.tw"),
        "exact.tw_iters": int(c.get("exact.tw_iters", 0)),
        "reduced.self_similar_s": total("reduced.self_similar"),
        "reduced.self_similar_iters": int(c.get("reduced.self_similar_iters", 0)),
        "reduced.steady_s": total("reduced.steady"),
        "reduced.newton_iters": int(c.get("reduced.newton_iters", 0)),
        "verify.residual_s": total("verify.residual"),
        "verify.residual_calls": calls("verify.residual"),
        "lie.optimal_s": total("lie.optimal"),
        "trace.wall_s": pass_wall,
    }


def self_time_shares(table, pass_wall):
    """Self time per span name as a share of the traced pass wall."""
    out = {}
    for n in np.unique(table["name"]):
        out[str(n)] = float(table["self"][table["name"] == n].sum()) / pass_wall
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))
