"""Config-driven command line front end.

Commands: simulate | exact | reduce | verify | lie | sweep, each taking a
sectioned key=value config file, an output directory and optional
--override section.key=value pairs.  Exit codes: 0 success, 2 config error,
3 numerical failure (diagnostic report still written), 4 I/O error.

Every CSV starts with '# ' JSON header lines carrying the canonical config
echo, so any output can be re-run from its own metadata.  Floats are printed
with 17 significant digits, which round-trips double precision losslessly.
"""

import argparse
import collections
import contextlib
import dataclasses
import itertools
import json
import os
import sys
import textwrap

import numpy as np

from . import exact_solutions, lie_toolkit, pde_solver, reduced_systems, verify
from .core import (
    MAX_STEPS,
    CaseTag,
    ConstantDecay,
    ExponentialDecay,
    FieldPair,
    Grid1D,
    ModelParams,
    PowerLawDecay,
    TabulatedDecay,
)
from .errors import EvaluationError, FlksError, IoError, ParseError, ValidationError
from .limiters import limiter_from_config

_BOOL = {"true": True, "false": False}


def _as_bool(s):
    try:
        return _BOOL[s.lower()]
    except KeyError:
        raise ValueError(f"expected true/false, got {s!r}") from None


def _as_floats(s):
    values = tuple(float(p) for p in s.split(",") if p.strip())
    if not values:
        raise ValueError(f"needs at least one value, got {s!r}")
    return values


def _positive(s):
    if not float(s) > 0.0:  # NaN included
        raise ValueError(f"must be positive, got {s}")
    return float(s)


# section -> key -> converter, or the key's default value, whose type is then
# its converter.  Unknown keys are hard errors.  Defaults are filled into every
# parsed config and so echoed into every CSV header.  The [model], [grid] and
# [solver] keys are the fields of ModelParams, Grid1D and SolverConfig.
_SCHEMA = {
    "run": {"seed": 0},
    "model": {"D": 1.0, "tau": 1.0},
    "limiter": {"kind": "tanh", "v_max": float, "s0": float, "a": float},
    "decay": {
        "kind": "constant", "kappa0": 1.0, "mu": float, "lambda": float,
        "times": _as_floats, "values": _as_floats, "allow_negative": _as_bool,
    },
    "grid": {"x_lo": -5.0, "x_hi": 5.0, "n": 64},
    "solver": {"bc": "neumann", "cfl_safety": 0.4, "t_end": 1.0, "output_stride": 20},
    "initial": {
        "kind": "uniform", "u0": 1.0, "v0": 0.0,
        "amplitude": float, "center": float, "width": _positive, "noise": float,
    },
    "exact": {
        "family": str, "n": int, "t_samples": _as_floats,
        "C": float, "V0": float, "t0": float, "alpha": float, "A": float, "B": float,
        "U_ref": float, "y0": float, "C1": float, "window_lo": float, "window_hi": float,
    },
    "reduce": {
        "kind": str, "n": int, "t_end": float, "h": _positive, "xi_max": float,
        "U0": float, "V0": float, "dU0": float, "s0": float, "C1": float,
        "alpha": float, "y_lo": float, "y_hi": float,
    },
    "verify": {"family": str, "t_samples": _as_floats, "ht": _positive},
    "sweep": {"section": str, "key": str, "values": _as_floats, "command": str},
}


def _convert(section, key, text):
    """Convert config text for section.key through the key's schema entry; a
    float, alone or in a list, must be finite (a sweep's values: as its key's)."""
    spec = _SCHEMA.get(section, {}).get(key)
    if spec is None:
        raise ValidationError(f"unknown config key {section}.{key}")
    try:
        value = (spec if callable(spec) else type(spec))(text)
        if section != "sweep" and isinstance(value, (float, tuple)) and not np.isfinite(value).all():
            raise ValueError(f"must be finite, got {text}")
    except ValueError as exc:
        raise ValidationError(f"bad value for {section}.{key}: {exc}") from None
    return value


@dataclasses.dataclass
class RunConfig:
    """Parsed, validated configuration; sections hold converted values."""

    command: str
    sections: dict

    def get(self, section, key, default=None):
        return self.sections.get(section, {}).get(key, default)


def _format_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, tuple):
        return ",".join(format(float(x), ".17g") for x in v)
    return str(v)


def parse_config(text, command="simulate"):
    """Parse sectioned key=value text into a validated RunConfig for
    ``command``, which only the caller names.

    Unknown sections or keys raise errors naming the offending line; there
    are no silent defaults for misspellings.
    """
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("unterminated section header", line=lineno)
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                raise ValidationError(f"unknown section [{name}] at line {lineno}")
            current = name
            sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ParseError("expected key = value", line=lineno, column=1)
        if current is None:
            raise ParseError("key outside any section", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SCHEMA[current]:
            raise ValidationError(
                f"unknown key {key!r} in section [{current}] at line {lineno}"
            )
        try:
            sections[current][key] = _convert(current, key, value.strip())
        except ValidationError as exc:
            raise ParseError(str(exc), line=lineno) from None

    merged = {}
    for section, keys in _SCHEMA.items():
        defaults = {k: v for k, v in keys.items() if not callable(v)}
        if defaults:
            merged[section] = defaults
    for section, body in sections.items():
        merged.setdefault(section, {}).update(body)

    cfg = RunConfig(command=command, sections=merged)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg):
    decay = cfg.sections.get("decay", {})
    if decay.get("kind") == "constant" and decay.get("kappa0", 1.0) < 0.0:
        if not decay.get("allow_negative", False):
            raise ValidationError(
                "negative kappa0 is admitted mathematically but flagged; "
                "set decay.allow_negative = true to override"
            )
    grid = cfg.sections.get("grid", {})
    lo, hi = grid.get("x_lo", 0.0), grid.get("x_hi", 1.0)
    if grid and lo >= hi:
        raise ValidationError(f"grid needs x_lo < x_hi, got x_lo = {lo!r}, x_hi = {hi!r}")
    if cfg.get("run", "seed", 0) < 0:
        raise ValidationError(f"run.seed must be >= 0, got {cfg.get('run', 'seed')}")


def apply_overrides(cfg, overrides):
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ValidationError(f"override must look like section.key=value, got {item!r}")
        dotted, value = item.split("=", 1)
        section, key = dotted.split(".", 1)
        cfg.sections.setdefault(section, {})[key] = _convert(section, key, value.strip())
    _validate_config(cfg)
    return cfg


# decay kind -> (law, its [decay] keys in argument order); a run under the
# law starts at its ``start``
_DECAY_KINDS = {
    "constant": (ConstantDecay, ("kappa0",)),
    "power_law": (PowerLawDecay, ("mu",)),
    "exponential": (ExponentialDecay, ("kappa0", "lambda")),
    "tabulated": (TabulatedDecay, ("times", "values")),
}


def _decay_kind(cfg):
    """The [decay] kind of cfg, checked against _DECAY_KINDS."""
    kind = cfg.sections["decay"]["kind"]
    if kind not in _DECAY_KINDS:
        raise ValidationError(
            f"unknown decay kind {kind!r}; expected one of {sorted(_DECAY_KINDS)}"
        )
    return kind


def build_decay(cfg):
    d = cfg.sections["decay"]
    kind = _decay_kind(cfg)
    law, keys = _DECAY_KINDS[kind]
    missing = [k for k in keys if k not in d]
    if missing:
        raise ValidationError(f"decay kind {kind!r} needs {', '.join(missing)}")
    return law(*(d[k] for k in keys))


def build_limiter(cfg):
    lim = dict(cfg.sections["limiter"])
    return limiter_from_config(lim.pop("kind"), **lim)


def build_model(cfg):
    return ModelParams(
        **cfg.sections["model"], limiter=build_limiter(cfg), decay=build_decay(cfg)
    )


def build_grid(cfg):
    return Grid1D(**cfg.sections["grid"])


def build_initial(cfg, grid):
    """The [initial] state on the grid's nodes at the decay law's start.
    Its numbers are finite and its width positive as the schema reads them;
    a state that is not finite at every node is a config error."""
    ini = cfg.sections["initial"]
    x = grid.nodes()
    kind, u0 = ini["kind"], ini["u0"]
    if kind == "uniform":
        u = np.full_like(x, u0)
    elif kind == "gaussian":
        c, w = ini.get("center", 0.5 * (grid.x_lo + grid.x_hi)), ini.get("width", 1.0)
        u = u0 + ini.get("amplitude", 1.0) * np.exp(-((x - c) ** 2) / (2.0 * w * w))
    elif kind == "noise":
        rng = np.random.default_rng(cfg.get("run", "seed", 0))
        u = u0 + ini.get("noise", 1e-2) * rng.standard_normal(x.size)
    else:
        raise ValidationError(f"unknown initial kind {kind!r}")
    if not np.isfinite(u).all():
        raise ValidationError(f"the [initial] {kind} state is not finite at every node")
    return FieldPair(u, np.full_like(x, ini["v0"]), build_decay(cfg).start)


# ---------------------------------------------------------------------------
# exact families and reducers
# ---------------------------------------------------------------------------

def _uniform_args(e, law):
    return {"C": e.get("C", 1.0), "V0": e.get("V0", 0.0), "t0": e.get("t0", law.start)}


def _case1(cfg, params, e):
    sol = exact_solutions.case1_homogeneous(params, **_uniform_args(e, params.decay))
    return lambda: sol


def _case3(cfg, params, e):
    sol = exact_solutions.case3_homogeneous(
        params.decay.mu, params.tau, **_uniform_args(e, params.decay)
    )
    return lambda: sol


def _case4(cfg, params, e):
    sol = exact_solutions.case4_homogeneous(
        params.decay.kappa0, params.decay.lam, params.tau, **_uniform_args(e, params.decay)
    )
    return lambda: sol


def _case2(cfg, params, e):
    return lambda: exact_solutions.case2_travelling_tanh(
        params,
        alpha=e.get("alpha", 1.1),
        C1=e.get("C1", 0.0),
        U_ref=e.get("U_ref", 1.0),
        y0=e.get("y0", 0.0),
        window=(e.get("window_lo", -40.0), e.get("window_hi", 40.0)),
        n=e.get("n", 16384),
    )


def _cellfree_front(cfg, params, e):
    sol = exact_solutions.case4_cellfree_front(
        e.get("alpha", 1.1), params.tau, params.decay, A=e.get("A", 1.0), B=e.get("B", 0.0)
    )
    return lambda: sol


# family -> (entry(cfg, params, [exact] section), decay kinds that admit it, or
# () for all); an entry builds a closed form and its work returns it, case II's
# work is its closure solve; verify takes each family's configured PDE residual
_FAMILIES = {
    "case1_homogeneous": (_case1, ()),
    "case2_travelling_tanh": (_case2, ("constant",)),
    "case3_homogeneous": (_case3, ("power_law",)),
    "case4_homogeneous": (_case4, ("exponential",)),
    "case4_cellfree_front": (_cellfree_front, ()),
}


def _reduce_homogeneous(cfg, params, r):
    """The solve that samples case1_homogeneous with C = U0 at n + 1 even
    times over [start, start + t_end], n = reduced_systems.step_count of the
    span at step h (checked first), as a (t, U, V) table; a non-finite
    sample is a numerical failure."""
    t0 = params.decay.start
    t1 = t0 + r.get("t_end", 5.0)
    n = reduced_systems.step_count((t0, t1), r.get("h", 1e-3))

    def solve():
        ts = t0 + (t1 - t0) / n * np.arange(n + 1)
        sol = exact_solutions.case1_homogeneous(
            params, C=r.get("U0", 1.0), V0=r.get("V0", 0.0), t0=t0
        )
        table = np.column_stack([ts, sol.eval_u(0.0, ts), sol.eval_v(0.0, ts)])
        bad = ~np.isfinite(table).all(axis=1)
        if bad.any():
            raise EvaluationError(f"non-finite sample at t={ts[np.argmax(bad)]:g}")
        return table
    return solve


def _reduce_steady_state(cfg, params, r):
    """Newton from the [initial] profile's u sampled on the reduce grid, so
    the steady state keeps its trapezoid mass; v starts at u/kappa0."""
    g = cfg.sections["grid"]
    grid = Grid1D(g["x_lo"], g["x_hi"], r.get("n", 128))
    prob = reduced_systems.ReducedProblem(
        "steady_state", params, domain=(grid.x_lo, grid.x_hi),
        data={"bc": "neumann", "u_init": build_initial(cfg, grid).u},
    )
    return lambda: reduced_systems.solve_steady_state(prob, n=grid.n)


def _reduce_travelling_wave(cfg, params, r):
    prob = reduced_systems.ReducedProblem(
        "travelling_wave", params,
        constants={"alpha": r.get("alpha", 1.1)},
        domain=(r.get("y_lo", 0.0), r.get("y_hi", 5.0)),
        data={"U0": r.get("U0", 0.0), "dU0": r.get("dU0", 0.0),
              "V0": r.get("V0", 1.0), "s0": r.get("s0", 0.0)},
    )
    h = r.get("h", 1e-3)
    reduced_systems.step_count(prob.domain, h)
    return lambda: reduced_systems.integrate_travelling_wave(prob, h=h)


def _reduce_self_similar(cfg, params, r):
    grid = Grid1D(0.0, r.get("xi_max", 10.0), r.get("n", 2000))
    prob = reduced_systems.ReducedProblem(
        "self_similar", params, domain=(grid.x_lo, grid.x_hi),
        data={"U0": r.get("U0", 1.0), "C1": r.get("C1", 0.0)},
    )
    return lambda: reduced_systems.solve_self_similar(prob, n=grid.n)


# reduce kind -> (entry(cfg, params, [reduce] section), decay kinds that admit
# it); an entry checks the problem and the grid or steps its solve marches on,
# and its work is that solve; kappa0, or mu when self-similar, is the law's
_REDUCERS = {
    "homogeneous": (_reduce_homogeneous, ()),
    "steady_state": (_reduce_steady_state, ("constant",)),
    "travelling_wave": (_reduce_travelling_wave, ("constant",)),
    "self_similar": (_reduce_self_similar, ("power_law",)),
}


def _lookup(table, what, name, cfg):
    """table[name], once its decay kinds are checked against cfg's."""
    if name not in table:
        raise ValidationError(f"unknown {what} {name!r}; expected one of {sorted(table)}")
    entry = table[name]
    kind = _decay_kind(cfg)
    if entry[1] and kind not in entry[1]:
        raise ValidationError(
            f"{what} {name!r} needs decay kind {' or '.join(entry[1])}, not {kind!r}"
        )
    return entry


# ---------------------------------------------------------------------------
# CSV export / import
# ---------------------------------------------------------------------------

# rows per `%` call of the CSV body writers: bounds the tuple of values and the
# string one call holds, so a long trajectory is written in bounded memory
_BLOCK_ROWS = 8192


def _write_rows(f, table):
    """Write the rows of a 2-D table as CSV lines, every value as "%.17g".

    One `%` call formats a block of rows; the bytes are np.savetxt's with
    fmt="%.17g" and delimiter=",", which applies the same row format to
    one row at a time.
    """
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    for start in range(0, len(table), _BLOCK_ROWS):
        block = table[start : start + _BLOCK_ROWS]
        f.write((row * len(block)) % tuple(block.ravel().tolist()))


def _cell(c):
    return format(float(c), ".17g") if isinstance(c, (int, float, np.floating)) else str(c)


# fields sampled on nodes x at each of times, frame after frame: the body of a
# long-format (t, x, u, v) CSV; each frame's u and v is a node array or, for a
# field the solution states x-independent, one value
_Frames = collections.namedtuple("_Frames", "times x us vs")


def _write_long(f, frames):
    """Write _write_rows' bytes of the long table of frames, never built.

    Each node's x cell is formatted once, as a ",x," piece.  Each frame's t
    cell is formatted once per frame, and so is a field that is one value
    for the frame; a block of nodes' rows is then one join of its pieces
    over the frame's "(u, v) cells, newline, t cell", and one `%` call per
    frame and block formats the node arrays' cells, none when both fields
    are values.
    """
    x = ["," + "%.17g" % c + "," for c in frames.x.tolist()]
    blocks = [(slice(start, start + _BLOCK_ROWS), x[start : start + _BLOCK_ROWS])
              for start in range(0, len(x), _BLOCK_ROWS)]
    for t, u, v in zip(frames.times, frames.us, frames.vs):
        t_cell = "%.17g" % t
        nodal = [a for a in (u, v) if np.ndim(a)]
        uv_cells = ",".join("%.17g" if np.ndim(a) else "%.17g" % a for a in (u, v))
        sep = uv_cells + "\n" + t_cell
        for nodes, pieces in blocks:
            rows = t_cell + sep.join(pieces) + uv_cells + "\n"
            if nodal:
                rows %= tuple(np.column_stack([a[nodes] for a in nodal]).ravel().tolist())
            f.write(rows)


def export_csv(result, path, meta=None, columns=None):
    """Write a result as CSV with a JSON metadata header comment block.

    Column layout per result kind: trajectories and sampled _Frames go
    long-format (t, x, u, v), profile results carry their abscissa plus profile columns, a 2-D array
    is a table with the given column names (c0, c1, ... by default), and
    report dicts flatten to key,value rows.  Numbers are written with 17
    significant digits.
    """
    meta = dict(meta or {})
    profiles = {"kind": "profiles"}
    if isinstance(result, pde_solver.Trajectory):
        header = ["t", "x", "u", "v"]
        cols = _Frames(result.times, result.grid.nodes(), result.us, result.vs)
        defaults = {
            "kind": "trajectory",
            "mass_ledger": [float(m) for m in result.mass],
            "min_u": [float(m) for m in result.min_u],
            "solver": result.metadata,
        }
    elif isinstance(result, _Frames):
        header, cols, defaults = ["t", "x", "u", "v"], result, {"kind": "trajectory"}
    elif isinstance(result, reduced_systems.SelfSimilarResult):
        header, cols = ["xi", "U", "V", "S"], (result.xi, result.U, result.V, result.S)
        defaults = dict(
            profiles,
            defects={"u": result.defect_u, "v": result.defect_v},
            converged=result.converged,
            residual_history=[float(r) for r in result.residual_history],
            metadata=result.metadata,
        )
    elif isinstance(result, exact_solutions.TravellingWaveSolution):
        header, cols = ["y", "U", "V", "s"], (result.y, result.U, result.V, result.s)
        defaults = dict(profiles, params=result.params,
                        residual_history=[float(r) for r in result.residual_history],
                        levels=result.levels)
    elif isinstance(result, reduced_systems.SteadyStateResult):
        header, cols = ["x", "U", "V"], (result.x, result.U, result.V)
        defaults = dict(profiles, defect=result.defect)
    elif isinstance(result, reduced_systems.TravellingWaveResult):
        header = ["y", "U", "dU", "V", "s"]
        cols, defaults = (result.y, result.U, result.dU, result.V, result.s), profiles
    elif isinstance(result, dict):
        header, cols, defaults = ["key", "value"], None, {"kind": "report"}
        rows = [[_cell(c) for c in row] for row in sorted(result.items())]
        for key, value in rows:
            # a comma or a line break would split the row where import_csv
            # reads it; splitlines also breaks at \v, \f, \x1c-\x1e, \x85, \u2028/9
            if any("," in c or "".join(c.splitlines()) != c for c in (key, value)):
                raise ValidationError(f"report entry {key!r} holds a comma or a line break")
    elif isinstance(result, np.ndarray) and result.ndim == 2:
        header = list(columns or (f"c{i}" for i in range(result.shape[1])))
        cols, defaults = result.T, {"kind": "table"}
    else:
        raise ValidationError(f"no CSV layout for {type(result).__name__}")
    for key, value in defaults.items():
        meta.setdefault(key, value)

    try:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write("# " + json.dumps(meta, sort_keys=True, default=str) + "\n")
            f.write(",".join(header) + "\n")
            if cols is None:
                f.writelines(",".join(row) + "\n" for row in rows)
            elif isinstance(cols, _Frames):
                _write_long(f, cols)
            else:
                _write_rows(f, np.column_stack(cols))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    return path


def import_csv(path):
    """Read back an exported CSV: (metadata dict, column-name -> array).

    A column whose cells all parse as floats comes back as a contiguous
    float64 array, any other (a report's key column) as a string array.
    The comment lines and the column header are read line by line; the body
    then goes to np.loadtxt's C parser in batches of about 64 KiB of lines,
    so no list of all its lines or cells is ever built and the peak memory
    stays near twice the returned arrays.  A body that parser cannot read
    exactly as float() reads each cell (a text cell, a ragged row, an empty
    cell, ``1_000``, a non-ASCII digit, a line break only str.splitlines
    knows, no rows at all) is re-read from the start of the file and split
    into cells.  Either way every value is float() of its cell.  A file
    without a column header line, a comment line that is not a JSON object,
    a repeated column name and a body row with more or fewer cells than the
    header raise IoError.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            numeric = _read_numeric(f, path)
        return numeric or _read_cells(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


# str.splitlines also ends a line at these; a text file's lines end only at
# \n, \r or \r\n
_OTHER_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _read_head(lines, path):
    """(meta, header, line number of the header) from an iterator of lines."""
    meta = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.startswith("#"):
            header = line.split(",")
            if len(set(header)) < len(header):
                raise IoError(f"{path}, line {lineno}: a column name repeats: {line}")
            return meta, header, lineno
        try:
            meta.update(json.loads(line[1:].strip()))
        except (ValueError, TypeError) as exc:
            raise IoError(f"{path}, line {lineno}: not a JSON object comment: {exc}") from None
    raise IoError(f"{path} has no column header line")


def _plain(lines):
    """A batch of a file's lines, or ValueError if str.splitlines would split one."""
    text = "".join(lines)
    if any(c in text for c in _OTHER_BREAKS):
        raise ValueError("a line holds a break that only str.splitlines ends a line at")
    return lines


def _read_numeric(f, path):
    """import_csv's result with the body parsed by np.loadtxt, or None when
    the body has no rows or differs from what _read_cells would read."""
    lines = itertools.chain.from_iterable(map(_plain, iter(lambda: f.readlines(1 << 16), [])))
    try:
        meta, header, _ = _read_head((line.rstrip("\n") for line in lines), path)
        # an empty body would make loadtxt warn "input contained no data"
        first = next((line for line in lines if line != "\n"), None)
        if first is None:
            return None
        table = np.loadtxt(itertools.chain([first], lines), delimiter=",", comments=None,
                           dtype=float, ndmin=2)
    except UnicodeDecodeError:
        raise
    except ValueError:
        return None
    if table.shape[1] != len(header):
        return None
    return meta, {h: np.array(table[:, i]) for i, h in enumerate(header)}


def _read_cells(path):
    """import_csv's result from the file split into lines and cells."""
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    meta, header, idx = _read_head(iter(lines), path)
    k = len(header)
    body = list(filter(None, lines[idx:]))
    if set(map(str.count, body, itertools.repeat(","))) - {k - 1}:
        for lineno, line in enumerate(lines[idx:], start=idx + 1):
            if line and line.count(",") != k - 1:
                raise IoError(f"{path}, line {lineno}: {line.count(',') + 1} cells, "
                              f"the header has {k}")
    # every row has k cells, so column i is every k-th cell from the i-th
    cells = ",".join(body).split(",") if body else []
    out = {}
    for i, h in enumerate(header):
        try:
            out[h] = np.array(cells[i::k], dtype=float)
        except ValueError:
            out[h] = np.array(cells[i::k])
    return meta, out


_PLOT_TEMPLATE = r'''"""Auto-generated plotting script.

Draws with matplotlib when it is installed; otherwise writes a grey-scale
raster of the same data with numpy and the standard library alone.
"""
import json
import os
import struct
import zlib

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
CSV = os.path.join(HERE, {csv_path!r})
PNG = os.path.join(HERE, {png_path!r})

with open(CSV) as f:
    meta = json.loads(f.readline()[1:])
    header = f.readline().rstrip("\n").split(",")


def to_pixels(a, size):
    """Map a linearly onto [0, size - 1]: its finite min to 0, its finite max to size - 1."""
    fin = a[np.isfinite(a)]
    lo, hi = (fin.min(), fin.max()) if fin.size else (0.0, 1.0)
    span = hi - lo if hi > lo else 1.0
    return np.clip(np.nan_to_num((a - lo) / span * (size - 1)), 0, size - 1)


def write_png(path, img):
    """Write a 2-D uint8 array, top row first, as an 8-bit grey-scale PNG."""
    def chunk(tag, data):
        return struct.pack(">I", len(data)) + tag + data + struct.pack(">I", zlib.crc32(tag + data))
    h, w = img.shape
    scanlines = np.hstack([np.zeros((h, 1), np.uint8), img]).tobytes()  # filter type 0 per row
    with open(path, "wb") as f:
        f.write(b"\x89PNG\r\n\x1a\n")
        f.write(chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)))
        f.write(chunk(b"IDAT", zlib.compress(scanlines, 9)))
        f.write(chunk(b"IEND", b""))


{data}
try:
    import matplotlib
except ImportError:
    matplotlib = None

if matplotlib is not None:
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
{plot}
    plt.tight_layout()
    plt.savefig(PNG, dpi=150)
else:
{raster}
    write_png(PNG, img)
print("wrote", PNG)
'''

# numeric bodies go to numpy's C reader, without a Python str per cell
_NUMERIC_BODY = '''body = np.loadtxt(CSV, delimiter=",", comments=None, skiprows=2, ndmin=2)
cols = dict(zip(header, body.T))
'''

_TRAJ_DATA = _NUMERIC_BODY + '''ts = np.unique(cols["t"])
xs = np.unique(cols["x"])
U = cols["u"].reshape(ts.size, xs.size)
'''

_TRAJ_PLOT = '''x_slice = 0.7
j = int(np.argmin(np.abs(xs - x_slice)))
fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(11, 4))
ax1.plot(ts, U[:, j])
ax1.set_xlabel("t")
ax1.set_ylabel("u")
ax1.set_title(f"cell density at x = {xs[j]:.3g}")
pc = ax2.pcolormesh(xs, ts, U, shading="auto")
fig.colorbar(pc, ax=ax2, label="u")
ax2.set_xlabel("x")
ax2.set_ylabel("t")
ax2.set_title("u(x, t)")
'''

# x to the right, t upward, u from black (min) to white (max); small grids
# are magnified by whole pixels to at least 256 on a side
_TRAJ_RASTER = '''img = to_pixels(U[::-1], 256).round().astype(np.uint8)
img = np.repeat(img, max(1, 256 // img.shape[0]), axis=0)
img = np.repeat(img, max(1, 256 // img.shape[1]), axis=1)
'''

_PROFILE_DATA = _NUMERIC_BODY + '''ab = header[0]
'''

_PROFILE_PLOT = '''fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(11, 4))
ax1.plot(cols[ab], cols[header[1]])
ax1.set_xlabel(ab)
ax1.set_ylabel(header[1])
ax1.set_title(header[1] + " profile")
for name in header[2:]:
    ax2.plot(cols[ab], cols[name], label=name)
ax2.set_xlabel(ab)
ax2.legend()
ax2.set_title("companion profiles")
'''

# a black polyline on white: consecutive points are joined by as many samples
# as the longer pixel side of their segment, so steep stretches leave no gaps
_PROFILE_RASTER = '''ok = np.isfinite(cols[ab]) & np.isfinite(cols[header[1]])
px = to_pixels(cols[ab][ok], 480)
py = 319 - to_pixels(cols[header[1]][ok], 320)
steps = 1 + np.maximum(np.abs(np.diff(px)), np.abs(np.diff(py))).astype(int)
knots = np.concatenate([[0], np.cumsum(steps)])
s = np.arange(knots[-1] + 1)
img = np.full((320, 480), 255, np.uint8)
img[np.rint(np.interp(s, knots, py)).astype(int), np.rint(np.interp(s, knots, px)).astype(int)] = 0
'''

# a report's key column is text, so its rows are split by hand
_REPORT_DATA = '''with open(CSV) as f:
    rows = [ln.split(",") for ln in f.read().splitlines()[2:] if ln]
keys = [r[0] for r in rows]
vals = np.array([float(r[1]) for r in rows])
'''

_REPORT_PLOT = '''fig, ax = plt.subplots(figsize=(7, 4))
ax.barh(keys, vals)
ax.set_xlabel(header[1])
ax.set_title("report")
'''

# one black bar per key from the zero column to its value, the first key at
# the bottom as barh draws it
_REPORT_RASTER = '''px = np.rint(to_pixels(np.append(vals, 0.0), 480)).astype(int)
img = np.full((24 * len(keys), 480), 255, np.uint8)
for i, p in enumerate(px[:-1]):
    top = 24 * (len(keys) - 1 - i)
    lo, hi = sorted((p, px[-1]))
    img[top + 4 : top + 20, lo : hi + 1] = 0
'''

_PLOT_BODIES = {
    "trajectory": (_TRAJ_DATA, _TRAJ_PLOT, _TRAJ_RASTER),
    "profiles": (_PROFILE_DATA, _PROFILE_PLOT, _PROFILE_RASTER),
    "report": (_REPORT_DATA, _REPORT_PLOT, _REPORT_RASTER),
}


def emit_plot_script(kind, csv_path, out_path):
    """Write a standalone script that plots a CSV to the PNG beside it.

    The script draws a two-panel (or bar) matplotlib figure when matplotlib
    is installed, and otherwise a grey-scale raster written with numpy and
    the standard library alone: u(x, t) for a trajectory, the first profile
    column against the abscissa for profiles, one bar per key for a report.
    It finds the CSV relative to its own location, so it runs from any
    working directory.
    """
    if not os.path.exists(csv_path):
        raise IoError(f"CSV not found: {csv_path}")
    if kind not in _PLOT_BODIES:
        raise ValidationError(f"unknown plot kind {kind!r}")
    data, plot, raster = _PLOT_BODIES[kind]
    csv_rel = os.path.relpath(csv_path, os.path.dirname(os.path.abspath(out_path)))
    text = _PLOT_TEMPLATE.format(
        csv_path=csv_rel,
        png_path=os.path.splitext(csv_rel)[0] + ".png",
        data=data,
        plot=textwrap.indent(plot, "    "),
        raster=textwrap.indent(raster, "    "),
    )
    try:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {out_path}: {exc}") from exc
    return out_path


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _meta_for(cfg):
    return {"config": cfg.sections, "command": cfg.command}


def _plotted(stem, result, meta, plot_kind, columns=None):
    """<stem>.csv and the plot_<plot_kind>.py beside it, as _write_set files."""
    csv = stem + ".csv"
    return [(csv, (result, meta, columns)), (f"plot_{plot_kind}.py", (plot_kind, csv))]


def _write_set(outdir, files):
    """Write a command's whole output set to outdir, all or nothing.

    files are (name, payload) pairs, written in order; the name's extension
    picks the writer: export_csv for .csv (payload: result, meta, columns),
    emit_plot_script for .py (plot kind, CSV name), indented JSON with
    sorted keys otherwise.  When a write fails with IoError, every regular
    file of the set is removed before the error propagates.
    """
    paths = [os.path.join(outdir, name) for name, _ in files]
    try:
        for path, (_, payload) in zip(paths, files):
            if path.endswith(".csv"):
                result, meta, columns = payload
                export_csv(result, path, meta=meta, columns=columns)
            elif path.endswith(".py"):
                kind, csv = payload
                emit_plot_script(kind, os.path.join(outdir, csv), path)
            else:
                try:
                    with open(path, "w", encoding="utf-8") as f:
                        json.dump(payload, f, indent=2, sort_keys=True, default=str)
                except OSError as exc:
                    raise IoError(f"cannot write {path}: {exc}") from exc
    except IoError:
        for path in paths:
            if os.path.isfile(path):
                with contextlib.suppress(OSError):
                    os.remove(path)
        raise


def cmd_simulate(cfg, outdir=None):
    params = build_model(cfg)
    grid = build_grid(cfg)
    config = pde_solver.SolverConfig(grid=grid, **cfg.sections["solver"])
    initial = build_initial(cfg, grid)
    pde_solver.check_run(initial, params, config)
    if outdir is None:
        return None
    traj = pde_solver.run(initial, params, config)
    _write_set(outdir, _plotted("trajectory", traj, _meta_for(cfg), "trajectory"))
    # the largest drift over the whole ledger, relative to the initial mass
    # (absolute when that is zero)
    drift = np.max(np.abs(traj.mass - traj.mass[0])) / (abs(traj.mass[0]) or 1.0)
    summary = {"frames": int(traj.times.size), "steps": traj.steps_taken,
               "mass_drift": float(drift), "dt": traj.metadata["dt"]}
    min_u = float(np.min(traj.min_u))
    if min_u < 0.0:
        # a negative cell density is unphysical: say so, outside the CSV body
        print(f"warning: negative cell density min_u={min_u:.6g}", file=sys.stderr)
        summary["min_u"] = min_u
    return summary


def cmd_exact(cfg, outdir=None):
    params = build_model(cfg)
    grid = build_grid(cfg)  # checked even where the family samples its own window
    e = cfg.sections.get("exact", {})
    family = e.get("family", "case1_homogeneous")
    entry = _lookup(_FAMILIES, "exact family", family, cfg)[0]
    ts = e.get("t_samples", (0.5, 1.0, 2.0))
    if not all(a < b for a, b in zip(ts, ts[1:])):
        # the CSV body and its plot script are one frame per sample time
        raise ValidationError(f"exact.t_samples must be increasing, got {ts!r}")
    if len(ts) * (grid.n + 1) > MAX_STEPS:
        raise ValidationError(f"{len(ts)} sample times of {grid.n + 1} nodes are more than "
                              f"{MAX_STEPS} values")
    work = entry(cfg, params, e)
    if outdir is None:
        return None
    sol = work()
    meta = _meta_for(cfg)
    if isinstance(sol, exact_solutions.TravellingWaveSolution):
        _write_set(outdir, _plotted(family, sol, meta, "profiles"))
        # a closure that misses its tolerance raises, and the run exits 3
        return {"family": family, "converged": True,
                "iterations": len(sol.residual_history),
                "levels": sol.levels}

    # sample the field families on the grid at the requested times
    x = grid.nodes()
    us, vs = [], []
    for t, (u, v) in zip(ts, sol.frames(x, ts)):
        # an x-independent field is one value, so its first bad node is x_lo
        bad = np.broadcast_to(~(np.isfinite(u) & np.isfinite(v)), x.shape)
        if bad.any():
            raise EvaluationError(f"non-finite sample at x={x[np.argmax(bad)]:g}, t={t:g}")
        us.append(u)
        vs.append(v)
    meta["params"] = {k: str(v) for k, v in sol.params.items()}
    meta["assumptions"] = list(sol.assumptions)
    body = _Frames(ts, x, us, vs)
    _write_set(outdir, _plotted(family, body, meta, "trajectory"))
    return {"family": family, "samples": len(ts) * x.size}


def cmd_reduce(cfg, outdir=None):
    params = build_model(cfg)
    r = cfg.sections.get("reduce", {})
    kind = r.get("kind", "homogeneous")
    solve = _lookup(_REDUCERS, "reduce kind", kind, cfg)[0](cfg, params, r)
    if outdir is None:
        return None
    res = solve()
    # every reduction writes profiles; the uniform one is its (t, U, V) table
    columns = ("t", "U", "V") if isinstance(res, np.ndarray) else None
    meta = dict(_meta_for(cfg), kind="profiles")
    _write_set(outdir, _plotted(f"reduce_{kind}", res, meta, "profiles", columns))
    out = {"kind": kind}
    if hasattr(res, "defect_u"):
        out.update(defect_u=res.defect_u, defect_v=res.defect_v, converged=res.converged)
    if hasattr(res, "defect"):
        out.update(defect=res.defect)
    return out


def cmd_verify(cfg, outdir=None):
    params = build_model(cfg)
    v = cfg.sections.get("verify", {})
    family = v.get("family", "case1_homogeneous")
    entry = _lookup(_FAMILIES, "verify family", family, cfg)[0]
    grid = build_grid(cfg)
    work = entry(cfg, params, cfg.sections.get("exact", {}))
    if outdir is None:
        return None
    rep = verify.pde_residual(work(), params, grid, v.get("t_samples", (0.5, 1.0)),
                              ht=v.get("ht", 5e-4))
    report = {
        "sup_norm": rep.sup_norm,
        "l2_norm": rep.l2_norm,
        "worst_x": rep.worst_location[0],
        "worst_t": rep.worst_location[1],
    }
    _write_set(outdir, _plotted("residual_report", report, _meta_for(cfg), "report")
               + [("residual_report.json", {"family": family, **report})])
    return report


def cmd_lie(cfg, outdir=None):
    if outdir is None:
        return None
    rows = lie_toolkit.classification_report()
    reports = {}
    for tag in CaseTag:
        rep = lie_toolkit.verify_optimal_system(tag)
        reports[tag.value] = {
            "representatives": rep.representatives,
            "all_ok": rep.all_ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in rep.checks
            ],
        }
    payload = {"classification": rows, "optimal_systems": reports}
    flat = {
        f"optimal_{case}_all_ok": int(rep["all_ok"]) for case, rep in reports.items()
    }
    _write_set(outdir, [("lie_report.json", payload),
                        ("lie_report.csv", (flat, _meta_for(cfg), None))])
    return {"all_ok": all(rep["all_ok"] for rep in reports.values())}


def cmd_sweep(cfg, outdir=None):
    s = cfg.sections.get("sweep", {})
    section, key = s.get("section"), s.get("key")
    values = s.get("values", ())
    base_command = s.get("command", "simulate")
    if not section or not key or not values:
        raise ValidationError("[sweep] needs section, key and values")
    if base_command not in _COMMANDS or base_command == "sweep":
        raise ValidationError(f"sweep cannot run command {base_command!r}")
    # each value is converted as if written in a config file, so integer keys
    # get ints, and names its own subdirectory
    values = [_convert(section, key, _format_value(v)) for v in values]
    names = [f"{section}.{key}={v!r}" for v in values]
    if len(set(names)) < len(names):
        raise ValidationError(f"sweep values repeat: {', '.join(map(repr, values))}")

    # every member passes the checks a config file gets and its command's
    # check phase before any member runs, so a value refused there writes no
    # member; only case2_travelling_tanh's own argument checks refuse as
    # their member runs
    subs = []
    for value in values:
        sub = RunConfig(
            command=base_command,
            sections={sec: dict(body) for sec, body in cfg.sections.items()},
        )
        sub.sections.setdefault(section, {})[key] = value
        _validate_config(sub)
        _COMMANDS[base_command](sub)
        subs.append(sub)
    if outdir is None:
        return None
    for sub, name in zip(subs, names):
        subdir = os.path.join(outdir, name)
        os.makedirs(subdir, exist_ok=True)
        _COMMANDS[base_command](sub, subdir)
    return {"runs": len(subs)}


# command -> cmd(cfg, outdir=None), which makes every refusal it owns first
# and, without an outdir, returns None before it solves, marches, samples or writes
_COMMANDS = {
    "simulate": cmd_simulate,
    "exact": cmd_exact,
    "reduce": cmd_reduce,
    "verify": cmd_verify,
    "lie": cmd_lie,
    "sweep": cmd_sweep,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="flks",
        description="Flux-limited chemotaxis system: simulate, solve and verify",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the config file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument(
        "--override", action="append", default=[], metavar="SECTION.KEY=VALUE"
    )
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 4

    try:
        cfg = parse_config(text, command=args.command)
        cfg = apply_overrides(cfg, args.override)
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return 4

    try:
        # every command refuses non-finite output, so numpy's own warnings
        # would only put its text on stderr ahead of the diagnostic line
        with np.errstate(all="ignore"):
            summary = _COMMANDS[cfg.command](cfg, args.out)
    except IoError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # a size inside MAX_STEPS that this machine cannot allocate
        print("config error: the configured sizes need more memory than is available",
              file=sys.stderr)
        return 2
    except FlksError as exc:
        # numerical failure: leave a diagnostic report behind
        report = {"error": type(exc).__name__, "message": str(exc)}
        for attr in ("history", "residual", "iterations"):
            if hasattr(exc, attr):
                report[attr] = getattr(exc, attr)
        with contextlib.suppress(IoError):
            _write_set(args.out, [("failure_report.json", report)])
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    print(json.dumps({"command": cfg.command, "summary": summary}, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
