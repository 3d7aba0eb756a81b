import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flks.cli import (
    _BLOCK_ROWS,
    _DECAY_KINDS,
    _FAMILIES,
    _Frames,
    _SCHEMA,
    _convert,
    _format_value,
    apply_overrides,
    build_model,
    emit_plot_script,
    export_csv,
    import_csv,
    main,
    parse_config,
)
from flks import cli, exact_solutions, lie_toolkit, pde_solver, reduced_systems, verify
from flks.core import ConstantDecay, FieldPair, Grid1D, ModelParams
from flks.errors import IoError, ParseError, ValidationError
from flks.limiters import TanhLimiter
from flks.pde_solver import SolverConfig, run

MINIMAL = """
[model]
D = 0.8
tau = 0.1
[limiter]
kind = tanh
v_max = 1.1
s0 = 1.4
[decay]
kind = constant
kappa0 = 0.5
[grid]
x_lo = -2.0
x_hi = 2.0
n = 32
[solver]
t_end = 0.05
output_stride = 10
[initial]
kind = uniform
u0 = 1.0
v0 = 0.0
"""

FIG1 = """
[model]
D = 0.8
tau = 0.1
[limiter]
kind = tanh
v_max = 1.1
s0 = 1.4
[decay]
kind = constant
kappa0 = 0.5
[exact]
family = case2_travelling_tanh
alpha = 1.1
U_ref = 1.0
y0 = 0.0
"""


def test_parse_minimal_and_defaults():
    cfg = parse_config(MINIMAL, command="simulate")
    assert cfg.command == "simulate"
    assert cfg.get("model", "D") == 0.8
    assert cfg.get("solver", "bc") == "neumann"  # default filled
    assert cfg.get("run", "seed") == 0


def test_parse_fig1_parameters():
    cfg = parse_config(FIG1, command="exact")
    p = build_model(cfg)
    assert p.D == 0.8 and p.tau == 0.1
    assert isinstance(p.limiter, TanhLimiter)
    assert p.limiter.v_max == 1.1 and p.limiter.s0 == 1.4
    assert isinstance(p.decay, ConstantDecay) and p.decay.kappa0 == 0.5
    assert cfg.get("exact", "alpha") == 1.1


def test_parse_rejects_unknown_keys():
    with pytest.raises(ValidationError):
        parse_config(MINIMAL + "\n[model]\nDD = 1.0\n")
    with pytest.raises(ValidationError):
        parse_config(MINIMAL + "\n[nonsense]\nx = 1\n")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_config("[model]\nD 0.8\n")
    assert exc.value.line == 2


def test_negative_kappa0_needs_override_key():
    bad = MINIMAL.replace("kappa0 = 0.5", "kappa0 = -1.0")
    with pytest.raises(ValidationError):
        parse_config(bad)
    ok = bad.replace("kind = constant", "kind = constant\nallow_negative = true")
    cfg = parse_config(ok)
    assert cfg.get("decay", "kappa0") == -1.0


def test_config_roundtrips_to_canonical_form():
    # sweep writes each value back as text with _format_value and re-reads
    # it with _convert: every parsed value, defaults included, must return
    # to the last bit (floats and tuples of floats at %.17g)
    cfg = parse_config(MINIMAL.replace("kind = constant", "kind = constant\nallow_negative = true")
                       + "[exact]\nt_samples = 0.1,0.30000000000000004,2.2250738585072014e-308\n",
                       command="simulate")
    apply_overrides(cfg, ["model.D=0.30000000000000004", "grid.x_lo=-1e-300"])
    values = [(s, k, v) for s, body in cfg.sections.items() for k, v in body.items()]
    assert {type(v) for _, _, v in values} == {str, int, float, bool, tuple}
    for section, key, value in values:
        back = _convert(section, key, _format_value(value))
        assert type(back) is type(value) and back == value, (section, key)


def test_overrides():
    cfg = parse_config(MINIMAL, command="simulate")
    apply_overrides(cfg, ["model.D=1.5", "solver.t_end=0.1"])
    assert cfg.get("model", "D") == 1.5
    with pytest.raises(ValidationError):
        apply_overrides(cfg, ["model.bogus=1"])
    with pytest.raises(ValidationError):
        apply_overrides(cfg, ["no_dots"])


def test_export_import_roundtrip_full_precision(tmp_path):
    p = ModelParams(D=0.8, tau=0.1, limiter=TanhLimiter(1.1, 1.4), decay=ConstantDecay(0.5))
    grid = Grid1D(0.0, 1.0, 8)
    cfg = SolverConfig(grid=grid, t_end=0.02, output_stride=10)
    rng = np.random.default_rng(0)
    traj = run(FieldPair(1.0 + 0.1 * rng.random(9), rng.random(9), 0.0), p, cfg)
    path = tmp_path / "traj.csv"
    export_csv(traj, str(path), meta={"hello": "world"})
    meta, cols = import_csv(str(path))
    assert meta["hello"] == "world"
    n_frames = traj.times.size
    assert cols["t"].size == n_frames * 9
    # losslessness: 17 significant digits round-trip doubles exactly
    np.testing.assert_array_equal(cols["u"], traj.us.ravel())
    np.testing.assert_array_equal(cols["v"], traj.vs.ravel())


def test_export_empty_trajectory_header_only(tmp_path):
    # zero-length horizon: a single frame is the degenerate case
    report = {}
    path = tmp_path / "empty.csv"
    export_csv(report, str(path))
    meta, cols = import_csv(str(path))
    assert meta["kind"] == "report"
    assert set(cols) == {"key", "value"}
    assert all(v.size == 0 for v in cols.values())


def test_emit_plot_script_requires_csv(tmp_path):
    with pytest.raises(IoError):
        emit_plot_script("trajectory", str(tmp_path / "missing.csv"), str(tmp_path / "p.py"))


def test_emit_plot_script_kinds(tmp_path):
    csv = tmp_path / "thing.csv"
    csv.write_text('# {"kind": "report"}\nkey,value\na,1\n')
    out = emit_plot_script("report", str(csv), str(tmp_path / "plot.py"))
    text = open(out).read()
    assert "barh" in text
    out2 = emit_plot_script("trajectory", str(csv), str(tmp_path / "plot2.py"))
    assert "pcolormesh" in open(out2).read()


def test_main_simulate_and_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MINIMAL)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out2)]) == 0
    b1 = (out1 / "trajectory.csv").read_bytes()
    b2 = (out2 / "trajectory.csv").read_bytes()
    assert b1 == b2


NEGATIVE_DENSITY = """
[model]
D = 0.05
tau = 0.1
[limiter]
kind = tanh
v_max = 5.0
s0 = 0.2
[decay]
kind = constant
kappa0 = 0.5
[grid]
x_lo = -4.0
x_hi = 4.0
n = 128
[solver]
t_end = 0.1
output_stride = 320
[initial]
kind = uniform
u0 = 0.0
v0 = 0.0
"""


def test_simulate_flags_negative_density(tmp_path, monkeypatch, capsys):
    # the positivity repro, cut to t = 0.1: u0 = 5 on |x| < 0.5, v0 = exp(-x^2)
    from flks import cli

    def box(cfg, grid):
        x = grid.nodes()
        return FieldPair(np.where(np.abs(x) < 0.5, 5.0, 0.0), np.exp(-x * x), 0.0)

    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(NEGATIVE_DENSITY)
    monkeypatch.setattr(cli, "build_initial", box)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "neg")]) == 0
    out, err = capsys.readouterr()
    warnings = [line for line in err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 1
    assert "negative cell density min_u=" in warnings[0]
    min_u = json.loads(out.strip().splitlines()[-1])["summary"]["min_u"]
    assert min_u < -1.0
    assert float(warnings[0].split("min_u=")[1]) == pytest.approx(min_u, rel=1e-5)

    # a run that stays nonnegative says nothing and keeps its summary keys
    cfg_path.write_text(MINIMAL)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "pos")]) == 0
    out, err = capsys.readouterr()
    assert "warning" not in err
    assert "min_u" not in json.loads(out.strip().splitlines()[-1])["summary"]


def test_simulate_summary_reports_the_largest_relative_mass_drift(tmp_path, monkeypatch, capsys):
    # a ledger that peaks between its first and last frames: the drift is
    # the largest |m - m0| / |m0| over the ledger, not |m[-1] - m[0]|
    from flks import cli

    real_run = cli.pde_solver.run

    def peaked(*args):
        traj = real_run(*args)
        m0 = traj.mass[0]
        traj.mass = m0 * np.array([1.0, 1.5] + [1.1] * (traj.mass.size - 2))
        return traj

    cfg_path = tmp_path / "cfg.ini"
    # 3 steps to t = 0.05; every step a frame gives the 4 the ledger needs
    cfg_path.write_text(MINIMAL.replace("output_stride = 10", "output_stride = 1"))
    monkeypatch.setattr(cli.pde_solver, "run", peaked)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["summary"]
    assert summary["frames"] >= 3
    assert summary["mass_drift"] == pytest.approx(0.5, rel=1e-12)

    # a cell-free run has no mass to be relative to: its drift reads 0, not NaN
    monkeypatch.setattr(cli.pde_solver, "run", real_run)
    cfg_path.write_text(MINIMAL.replace("u0 = 1.0", "u0 = 0.0"))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "empty")]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["summary"]
    assert summary["mass_drift"] == 0.0


def test_simulate_reports_the_step_and_its_active_bound(tmp_path, capsys):
    # the fig-1 constants on [-4, 4] with n = 256: the one bound is the flux
    # speed's, dt = cfl dx/(2 v_max), 36 steps to t = 0.2
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MINIMAL.replace("x_lo = -2.0", "x_lo = -4.0")
                        .replace("x_hi = 2.0", "x_hi = 4.0").replace("n = 32", "n = 256")
                        .replace("t_end = 0.05", "t_end = 0.2"))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["summary"]
    dx = 8.0 / 256
    assert "dt_bound" not in summary
    assert summary["dt"] == pytest.approx(0.4 * dx / 2.2, rel=1e-12)
    assert summary["steps"] == 36
    # the record goes to the CSV header, never to the body
    meta, cols = import_csv(str(tmp_path / "o" / "trajectory.csv"))
    assert meta["solver"]["dt"] == summary["dt"]
    assert "dt_bound" not in meta["solver"]
    assert set(cols) == {"t", "x", "u", "v"}


def test_exact_travelling_wave_records_its_closure_levels(tmp_path, capsys):
    # n = 4096 solves at 1024 first; the levels go to the summary and the
    # CSV header, never to the body
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(FIG1 + "n = 4096\n")
    assert main(["exact", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["summary"]
    (m1, k1), (m2, k2) = summary["levels"]
    assert (m1, m2) == (1024, 4096) and summary["iterations"] == k2
    meta, cols = import_csv(str(tmp_path / "o" / "case2_travelling_tanh.csv"))
    assert meta["levels"] == summary["levels"]
    assert len(meta["residual_history"]) == k2
    assert set(cols) == {"y", "U", "V", "s"}


def test_main_exit_codes(tmp_path):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MINIMAL + "\n[model]\nbogus = 1\n")
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert main(["simulate", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "o")]) == 4


def test_main_lie_command(tmp_path):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MINIMAL)
    out = tmp_path / "lie"
    assert main(["lie", "--config", str(cfg_path), "--out", str(out)]) == 0
    payload = json.loads((out / "lie_report.json").read_text())
    assert all(rep["all_ok"] for rep in payload["optimal_systems"].values())


def test_main_verify_command(tmp_path):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MINIMAL)
    out = tmp_path / "ver"
    assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 0
    rep = json.loads((out / "residual_report.json").read_text())
    assert rep["sup_norm"] < 1e-8


def test_main_reduce_self_similar(tmp_path):
    cfg = MINIMAL.replace("kind = tanh\nv_max = 1.1\ns0 = 1.4",
                          "kind = tanh_log\nv_max = 1.1\na = 0.51")
    cfg = cfg.replace("kind = constant\nkappa0 = 0.5", "kind = power_law\nmu = 0.5")
    cfg += "\n[reduce]\nkind = self_similar\nn = 600\n"
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(cfg)
    out = tmp_path / "red"
    assert main(["reduce", "--config", str(cfg_path), "--out", str(out)]) == 0
    meta, cols = import_csv(str(out / "reduce_self_similar.csv"))
    assert meta["converged"] is True
    assert cols["xi"].size == 601


def test_reduce_steady_state_starts_from_the_initial_profile(tmp_path, capsys):
    # Newton starts at [initial]'s u on the reduce grid and row 0 pins its
    # trapezoid mass; from u = 1 it would start at, and write, U = 1
    cfg = MINIMAL.replace("D = 0.8", "D = 0.3").replace(
        "kind = uniform", "kind = gaussian\namplitude = 0.5\nwidth = 0.5")
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(cfg + "[reduce]\nkind = steady_state\nn = 64\n")
    out = tmp_path / "red"
    assert main(["reduce", "--config", str(cfg_path), "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["summary"]
    meta, cols = import_csv(str(out / "reduce_steady_state.csv"))
    x, U = cols["x"], cols["U"]
    u0 = 1.0 + 0.5 * np.exp(-x**2 / 0.5)
    assert x.size == 65 and summary["defect"] < 1e-10
    assert U.max() - U.min() > 0.5
    assert abs(np.trapezoid(U, x) - np.trapezoid(u0, x)) <= 1e-10 * np.trapezoid(u0, x)


def test_main_sweep(tmp_path):
    cfg = MINIMAL + "\n[sweep]\nsection = decay\nkey = kappa0\nvalues = 0.4,0.6\ncommand = simulate\n"
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(cfg)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    subdirs = sorted(os.listdir(out))
    assert len(subdirs) == 2
    for sub in subdirs:
        assert (out / sub / "trajectory.csv").exists()


def _csv_body(path):
    return b"".join(line for line in path.read_bytes().splitlines(True)
                    if not line.startswith(b"#"))


def test_sweep_members_match_solo_runs(tmp_path):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MINIMAL + _sweep("decay.kappa0", "0.4,0.6"))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    for value in ("0.4", "0.6"):
        solo = tmp_path / f"solo{value}"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(solo),
                     "--override", f"decay.kappa0={value}"]) == 0
        member = out / f"decay.kappa0={value}" / "trajectory.csv"
        assert _csv_body(member) == _csv_body(solo / "trajectory.csv")


PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def _run_plot_script(script):
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, cwd=str(script.parent)
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _png_size(path):
    data = path.read_bytes()
    assert data[:8] == PNG_SIGNATURE
    assert data[12:16] == b"IHDR"
    width, height = struct.unpack(">II", data[16:24])
    assert width > 0 and height > 0
    return width, height


def test_emitted_plot_script_runs(tmp_path):
    # the generated script must execute standalone against its CSV
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MINIMAL)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    script = out / "plot_trajectory.py"
    proc = _run_plot_script(script)
    assert (out / "trajectory.png").exists()
    _png_size(out / "trajectory.png")
    assert proc.stdout.strip() == f"wrote {out / 'trajectory.png'}"


def test_emitted_report_script_runs(tmp_path):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MINIMAL)
    out = tmp_path / "ver"
    assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 0
    _run_plot_script(out / "plot_report.py")
    _png_size(out / "residual_report.png")


def test_emitted_profiles_script_runs(tmp_path):
    cfg = MINIMAL.replace("kind = tanh\nv_max = 1.1\ns0 = 1.4",
                          "kind = tanh_log\nv_max = 1.1\na = 0.51")
    cfg = cfg.replace("kind = constant\nkappa0 = 0.5", "kind = power_law\nmu = 0.5")
    cfg += "\n[reduce]\nkind = self_similar\nn = 600\n"
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(cfg)
    out = tmp_path / "red"
    assert main(["reduce", "--config", str(cfg_path), "--out", str(out)]) == 0
    _run_plot_script(out / "plot_profiles.py")
    _png_size(out / "reduce_self_similar.png")


def test_plot_script_raster_without_matplotlib(tmp_path):
    # with matplotlib unimportable the script writes a grey-scale u(x, t)
    # raster: x to the right, t upward, min black and max white
    csv = tmp_path / "traj.csv"
    csv.write_text('# {"kind": "trajectory"}\nt,x,u,v\n'
                   "0,0,0,0\n0,1,1,0\n0,2,2,0\n1,0,3,0\n1,1,4,0\n1,2,5,0\n")
    script = tmp_path / "plot.py"
    emit_plot_script("trajectory", str(csv), str(script))
    script.write_text("import sys\nsys.modules['matplotlib'] = None\n" + script.read_text())
    _run_plot_script(script)
    png = tmp_path / "traj.png"
    width, height = _png_size(png)
    data = png.read_bytes()
    idat, pos = b"", 8
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        if data[pos + 4 : pos + 8] == b"IDAT":
            idat += data[pos + 8 : pos + 8 + length]
        pos += 12 + length
    rows = np.frombuffer(zlib.decompress(idat), np.uint8).reshape(height, width + 1)
    assert not rows[:, 0].any()  # filter type 0 on every scanline
    img = rows[:, 1:]
    assert img[-1, 0] == 0 and img[0, -1] == 255
    assert img[-1, -1] == round(255 * 2 / 5) and img[0, 0] == round(255 * 3 / 5)


CONSTANT = "kind = constant\nkappa0 = 0.5"
EXPONENTIAL = "kind = exponential\nkappa0 = 0.5\nlambda = 0.2"
POWER_LAW = "kind = power_law\nmu = 0.5"
TANH = "kind = tanh\nv_max = 1.1\ns0 = 1.4"
TANH_LOG = "kind = tanh_log\nv_max = 1.1\na = 0.51"
LATE_TABLE = "kind = tabulated\ntimes = 0.5,2.0\nvalues = 0.5,0.7"
TABLE = "kind = tabulated\ntimes = 0,1.5,3\nvalues = 0.5,0.7,0.6"


def _sweep(target, values, command="simulate"):
    section, key = target.split(".")
    return f"[sweep]\nsection = {section}\nkey = {key}\nvalues = {values}\ncommand = {command}\n"


def _sweep_config(command, target, values):
    """A config that sweeps target over values under the first word of
    command, from MINIMAL with a Gaussian initial state.  A word after the
    command swaps in the decay table TABLE ("tabulated"), power-law or
    exponential decay or the tanh-log limiter; any other word is the
    [reduce] kind or the [exact] family."""
    command, *words = command.split()
    swaps = {"tabulated": (CONSTANT, TABLE), "power_law": (CONSTANT, POWER_LAW),
             "exponential": (CONSTANT, EXPONENTIAL), "tanh_log": (TANH, TANH_LOG)}
    text = MINIMAL.replace("kind = uniform", "kind = gaussian")
    for w in words:
        if w in swaps:
            text = text.replace(*swaps[w])
        else:
            text += f"[{command}]\n{'kind' if command == 'reduce' else 'family'} = {w}\n"
    return text + _sweep(target, values, command)


@pytest.mark.parametrize(
    "command, decay, extra, overrides, code",
    [
        pytest.param("simulate", "kind = exponential\nkappa0 = 0.5", "", [], 2,
                     id="exponential-without-lambda"),
        pytest.param("simulate", "kind = power_law", "", [], 2, id="power-law-without-mu"),
        pytest.param("simulate", "kind = tabulated\nvalues = 0.5,0.5", "", [], 2,
                     id="tabulated-without-times"),
        pytest.param("exact", CONSTANT, "[exact]\nfamily = case3_homogeneous\n", [], 2,
                     id="exact-case3-constant"),
        pytest.param("exact", CONSTANT, "[exact]\nfamily = case4_homogeneous\n", [], 2,
                     id="exact-case4-constant"),
        pytest.param("exact", CONSTANT, "[exact]\nfamily = nonsense\n", [], 2,
                     id="exact-unknown-family"),
        pytest.param("exact", CONSTANT, "[exact]\nfamily = case2_travelling_tanh\n",
                     ["grid.n=0"], 2, id="exact-travelling-wave-invalid-grid"),
        pytest.param("verify", POWER_LAW, "[verify]\nfamily = case2_travelling_tanh\n", [], 2,
                     id="verify-travelling-wave-power-law"),
        pytest.param("verify", CONSTANT, "[verify]\nfamily = case2_travelling_tanh\n", [], 0,
                     id="verify-travelling-wave"),
        pytest.param("reduce", EXPONENTIAL, "[reduce]\nkind = travelling_wave\n", [], 2,
                     id="reduce-travelling-wave-exponential"),
        pytest.param("reduce", POWER_LAW, "[reduce]\nkind = steady_state\n", [], 2,
                     id="reduce-steady-state-power-law"),
        pytest.param("simulate", CONSTANT, "", ["model.D=abc"], 2, id="override-bad-float"),
        pytest.param("sweep", CONSTANT, _sweep("grid.n", "16,32.5"), [], 2,
                     id="sweep-int-key-non-integral"),
        pytest.param("sweep", CONSTANT, _sweep("decay.kappa0", "0.4", "sweep"), [], 2,
                     id="sweep-of-sweeps"),
        pytest.param("sweep", CONSTANT, _sweep("decay.kappa0", "0.4", "bogus"), [], 2,
                     id="sweep-unknown-command"),
        pytest.param("exact", CONSTANT, "[exact]\nfamily = case4_cellfree_front\n", [], 0,
                     id="exact-cellfree-constant"),
        pytest.param("sweep", CONSTANT, _sweep("exact.C", "1,2", "exact"), [], 0,
                     id="sweep-section-left-out"),
        pytest.param("exact", POWER_LAW, "[exact]\nfamily = case1_homogeneous\n", [], 0,
                     id="exact-case1-power-law"),
        pytest.param("verify", POWER_LAW, "[verify]\nfamily = case1_homogeneous\n", [], 0,
                     id="verify-case1-power-law"),
        pytest.param("simulate", LATE_TABLE, "", ["solver.t_end=0.55"], 0,
                     id="simulate-tabulated-late-start"),
        pytest.param("exact", LATE_TABLE, "[exact]\nfamily = case1_homogeneous\n", [], 0,
                     id="exact-tabulated-late-start"),
        pytest.param("exact", EXPONENTIAL,
                     "[exact]\nfamily = case4_homogeneous\nt_samples = 1,10000\n", [], 3,
                     id="exact-case4-overflows-at-a-late-sample"),
        pytest.param("exact", EXPONENTIAL, "[exact]\nfamily = case4_homogeneous\n",
                     ["exact.t0=5000"], 2, id="exact-case4-overflows-at-t0"),
        pytest.param("verify", EXPONENTIAL, "[verify]\nfamily = case4_homogeneous\n",
                     ["verify.t_samples=4000"], 3, id="verify-case4-overflows"),
        pytest.param("exact", POWER_LAW,
                     "[exact]\nfamily = case3_homogeneous\nt_samples = 1e-300\n", [], 3,
                     id="exact-case3-power-overflows"),
        pytest.param("exact", TABLE, "[exact]\nt_samples = 1,5\n", [], 2,
                     id="exact-tabulated-sample-past-the-table"),
        pytest.param("verify", TABLE, "[verify]\nt_samples = 2.9995\n", [], 2,
                     id="verify-tabulated-stencil-past-the-table"),
        pytest.param("simulate", TABLE, "", ["solver.t_end=5"], 2,
                     id="simulate-tabulated-horizon-past-the-table"),
    ],
)
def test_config_exit_codes(tmp_path, capsys, command, decay, extra, overrides, code):
    # a config error exits 2 with a one-line message, never a traceback; a
    # family or reduction under a decay law that does not admit it is one.
    # The cell-free front runs under any decay law, a sweep may target a
    # section the config leaves out, and a run starts where its decay law
    # does (t = 1 under power law, the first knot of a table).  A closed
    # form that overflows double precision at a sample is a numerical
    # failure with its one diagnostic line; case IV's Ei argument at t0,
    # which config values alone set, is a config error.  A time outside the
    # decay law's domain is a config error, refused before any work: a
    # sample time, a verify stencil time or a run horizon past the end of a
    # decay table.
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MINIMAL.replace(CONSTANT, decay) + extra)
    argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]
    for item in overrides:
        argv += ["--override", item]
    assert main(argv) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("config error:")
    elif code == 3:
        assert err.startswith("numerical failure:") and err.count("\n") == 1, err
    else:
        assert err == ""


def test_uniform_family_reaches_its_steady_level_at_long_times(tmp_path):
    # fig-1 constant decay: v -> C/kappa0 = 2.  The accumulated exponent
    # int kappa/tau is 1e3 at t = 200; exact and reduce write v there
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MINIMAL + "[exact]\nfamily = case1_homogeneous\nt_samples = 1,200\n"
                        "[reduce]\nkind = homogeneous\nt_end = 200\nh = 0.01\n")
    for command, name, t_col, v_col in (("exact", "case1_homogeneous", "t", "v"),
                                        ("reduce", "reduce_homogeneous", "t", "V")):
        out = tmp_path / command
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
        _, cols = import_csv(str(out / f"{name}.csv"))
        v = cols[v_col][cols[t_col] == 200.0]
        assert v.size and np.all(np.abs(v / 2.0 - 1.0) <= 1e-14), v


def test_exact_cellfree_front_constant_decay_is_lam_zero(tmp_path):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MINIMAL + "[exact]\nfamily = case4_cellfree_front\nt_samples = 0.5\n")
    assert main(["exact", "--config", str(cfg_path), "--out", str(tmp_path / "c")]) == 0
    _, cols = import_csv(str(tmp_path / "c" / "case4_cellfree_front.csv"))
    cfg_path.write_text(MINIMAL.replace(CONSTANT, "kind = exponential\nkappa0 = 0.5\nlambda = 0")
                        + "[exact]\nfamily = case4_cellfree_front\nt_samples = 0.5\n")
    assert main(["exact", "--config", str(cfg_path), "--out", str(tmp_path / "e")]) == 0
    _, cols_exp = import_csv(str(tmp_path / "e" / "case4_cellfree_front.csv"))
    assert not cols["u"].any()
    np.testing.assert_array_equal(cols["v"], cols_exp["v"])


DECAY_TEXT = {"constant": CONSTANT, "power_law": POWER_LAW, "exponential": EXPONENTIAL,
              "tabulated": "kind = tabulated\ntimes = 0.0,2.0\nvalues = 0.5,0.7"}
# the measured mismatch with the configured system: the case II wave solves
# the PDE with F -> -F
MISMATCH = {("constant", "case2_travelling_tanh"): 0.3}


@pytest.mark.parametrize(
    "decay, family",
    [(kind, family) for family, (_, kinds) in _FAMILIES.items()
     for kind in kinds or _DECAY_KINDS],
)
def test_verify_every_sampled_family(tmp_path, decay, family):
    # every family under every decay kind that admits it is measured under
    # the configured model; n = 128 puts the 4th-order stencil error of the
    # fronts below the bound
    cfg = MINIMAL.replace(CONSTANT, DECAY_TEXT[decay]).replace("n = 32", "n = 128")
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(cfg + f"[verify]\nfamily = {family}\n")
    out = tmp_path / "ver"
    assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 0
    rep = json.loads((out / "residual_report.json").read_text())
    assert rep["family"] == family
    if (decay, family) in MISMATCH:
        assert rep["sup_norm"] > MISMATCH[decay, family]
    else:
        assert rep["sup_norm"] < 1e-6


# family -> whether it states (u, v) x-independent (``of_t`` evaluators):
# both fields of the uniform families, the cell-free front's u = 0 only, and
# neither field of the traveling wave
DECLARED = {"case1_homogeneous": (True, True), "case2_travelling_tanh": (False, False),
            "case3_homogeneous": (True, True), "case4_homogeneous": (True, True),
            "case4_cellfree_front": (True, False)}


@pytest.mark.parametrize(
    "decay, family",
    [(kind, family) for family, (_, kinds) in _FAMILIES.items()
     for kind in kinds or _DECAY_KINDS],
)
def test_declared_uniform_values_are_the_evaluators(decay, family):
    # exact writes a declared field as one value per frame: that value is
    # its evaluator at every node, bit for bit, each side on a fresh
    # instance sampled at the same times in one call
    from flks.cli import build_decay, build_grid

    cfg = parse_config(MINIMAL.replace(CONSTANT, DECAY_TEXT[decay]) + "[exact]\nn = 2048\n",
                       command="exact")

    def build():
        return _FAMILIES[family][0](cfg, build_model(cfg), cfg.sections["exact"])()

    sol, ref = build(), build()
    declared = tuple(hasattr(ev, "of_t") for ev in (sol.eval_u, sol.eval_v))
    assert declared == DECLARED[family]
    if not any(declared):
        return
    x = build_grid(cfg).nodes()
    ts = build_decay(cfg).start + np.array([0.5, 1.0, 2.0])
    for k, frame in enumerate(sol.frames(x, ts)):
        for value, ev, one_value in zip(frame, (ref.eval_u, ref.eval_v), declared):
            if not one_value:
                continue
            assert isinstance(value, float)
            np.testing.assert_array_equal(
                np.full(x.shape, value).view(np.int64),
                np.asarray(ev(x[:, None], ts), dtype=float)[:, k].view(np.int64))


def test_sweep_converts_values_per_key(tmp_path):
    # an int key receives ints, and subdirectories are named by repr(value)
    cfg = MINIMAL + "\n[sweep]\nsection = grid\nkey = n\nvalues = 16,32\n"
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(cfg)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["grid.n=16", "grid.n=32"]
    for n in (16, 32):
        meta, cols = import_csv(str(out / f"grid.n={n}" / "trajectory.csv"))
        assert meta["config"]["grid"]["n"] == n
        assert np.unique(cols["x"]).size == n + 1


def test_sweep_keeps_close_values_apart_and_rejects_repeats(tmp_path):
    base = MINIMAL + "\n[sweep]\nsection = decay\nkey = kappa0\nvalues = "
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(base + "0.1,0.1000001\n")
    out = tmp_path / "close"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["decay.kappa0=0.1", "decay.kappa0=0.1000001"]
    cfg_path.write_text(base + "0.1,0.25,0.1\n")
    out = tmp_path / "repeat"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert os.listdir(out) == []  # rejected before any run started


def test_plot_script_finds_its_csv_from_any_cwd(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MINIMAL)
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", "cfg.ini", "--out", "new_simulate"]) == 0
    out = tmp_path / "new_simulate"
    # cd new_simulate && python plot_trajectory.py
    proc = subprocess.run([sys.executable, "plot_trajectory.py"], cwd=str(out),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    _png_size(out / "trajectory.png")
    (out / "trajectory.png").unlink()
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    proc = subprocess.run([sys.executable, str(out / "plot_trajectory.py")], cwd=str(elsewhere),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    _png_size(out / "trajectory.png")
    assert os.listdir(elsewhere) == []


def test_export_block_matches_per_value_formatting(tmp_path):
    # the block writer prints every double as format(x, ".17g") would
    vals = np.array([[0.1, -0.0, np.nan, np.inf], [-np.inf, 5e-324, 1e300, -2.5],
                     [1.0, 3.0, 1 / 3, 2.0**-1074 * 3]])
    path = tmp_path / "t.csv"
    export_csv(vals, str(path), columns=("a", "b", "c", "d"))
    lines = path.read_text().splitlines()
    assert lines[1] == "a,b,c,d"
    assert lines[2:] == [",".join(format(float(x), ".17g") for x in row) for row in vals]


def test_sweep_validates_every_member_before_any_runs(tmp_path, capsys):
    # a negative constant kappa0 is flagged in a sweep just as in [decay]
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MINIMAL + _sweep("decay.kappa0", "0.5,-1"))
    out = tmp_path / "neg"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert os.listdir(out) == []
    allowed = "[decay]\nallow_negative = true\n"
    cfg_path.write_text(MINIMAL + allowed + _sweep("decay.kappa0", "0.5,-1"))
    out = tmp_path / "allowed"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["decay.kappa0=-1.0", "decay.kappa0=0.5"]


@pytest.mark.parametrize("command, target, values", [
    ("simulate", "grid.n", "32,4"), ("simulate", "limiter.v_max", "1.1,-1"),
    ("simulate", "initial.width", "1,0"), ("exact", "grid.n", "32,4"),
    ("verify", "grid.n", "32,4"), ("reduce", "limiter.v_max", "1.1,-1"),
    ("reduce", "reduce.h", "0.1,0"), ("reduce steady_state", "initial.width", "1,0"),
    ("simulate", "solver.cfl_safety", "0.4,2"), ("simulate", "solver.output_stride", "10,0"),
    ("exact", "exact.t_samples", "1,inf"), ("simulate", "solver.t_end", "0.05,1e9"),
    ("simulate", "solver.t_end", "0.05,-1"), ("simulate tabulated", "solver.t_end", "1,5"),
    ("verify", "verify.ht", "0.001,0"), ("exact", "grid.n", "32,5000000"),
    ("reduce steady_state", "reduce.n", "64,2"), ("reduce", "reduce.t_end", "1,1e12"),
    ("reduce travelling_wave", "reduce.y_hi", "5,-1"),
    ("reduce travelling_wave", "reduce.h", "0.01,1e-12"),
    ("reduce self_similar power_law tanh_log", "reduce.xi_max", "10,-1"),
    ("reduce self_similar power_law tanh_log", "reduce.n", "200,4"),
    ("reduce self_similar power_law", "decay.mu", "0.5,0.6"),
    ("exact case4_cellfree_front", "exact.alpha", "1.1,0"),
    ("exact tabulated", "exact.t0", "1,5"), ("exact tabulated", "exact.t_samples", "1,5"),
    ("exact power_law", "exact.t0", "1,-1"),
    ("exact power_law case3_homogeneous", "exact.t0", "1,-1"),
    ("verify tabulated", "verify.t_samples", "1,2.9995"),
    ("reduce tabulated", "reduce.t_end", "1,5")])
def test_sweep_refuses_a_bad_member_before_any_runs(tmp_path, capsys, command, target, values):
    # the second value is refused as the sweep reads it, or passes the config
    # checks but not its command's check phase (the model, grid, solver
    # config, initial state, the run's steps and horizon, the sample count,
    # a time outside the decay law's domain, a closed-form family, a
    # reduction's grid or steps), so it is refused before the first member
    # writes; under the tanh limiter every self-similar member is refused
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(_sweep_config(command, target, values))
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert os.listdir(out) == []


@pytest.mark.parametrize("command, target, values, name", [
    ("simulate", "grid.n", "32,4", "grid.n=4"),
    ("reduce self_similar power_law tanh_log", "reduce.n", "200,4", "reduce.n=4"),
    ("exact power_law case3_homogeneous", "exact.t0", "1,-1", "exact.t0=-1.0"),
    ("exact exponential case4_homogeneous", "exact.t0", "1,5000", "exact.t0=5000.0"),
    ("exact exponential case4_homogeneous", "decay.kappa0", "0.5,0", "decay.kappa0=0.0")])
def test_a_refused_sweep_member_is_named(tmp_path, capsys, command, target, values, name):
    # a member refused in its command's check phase is named by its
    # subdirectory on the one stderr line: a grid, the self-similar grid, a
    # case III t0 outside the power law's domain, and case IV's Ei argument
    # at t0 past its overflow guard or at its singularity
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(_sweep_config(command, target, values))
    assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: sweep member {name}: ") and err.count("\n") == 1, err


def _sequential_sweep(cfg, outdir=None):
    """The sweep as it ran before its members marched together: its check
    phase, then each member's cmd_simulate, one after another."""
    cli.cmd_sweep(cfg)
    if outdir is None:
        return None
    s = cfg.sections["sweep"]
    for value in s["values"]:
        value = _convert(s["section"], s["key"], _format_value(value))
        sub = cli.RunConfig("simulate", {sec: dict(body) for sec, body in cfg.sections.items()})
        sub.sections.setdefault(s["section"], {})[s["key"]] = value
        subdir = os.path.join(str(outdir), f"{s['section']}.{s['key']}={value!r}")
        os.makedirs(subdir, exist_ok=True)
        cli.cmd_simulate(sub, subdir)
    return {"runs": len(s["values"])}


def _sweep_outcome(capsys, cfg_path, out):
    """main's exit code, stdout and stderr for a sweep, and every path under
    out with the bytes of each file."""
    code = main(["sweep", "--config", str(cfg_path), "--out", str(out)])
    captured = capsys.readouterr()
    files = {}
    for path in _listing(out):
        full = os.path.join(out, path)
        if os.path.isfile(full):
            with open(full, "rb") as f:
                files[path] = f.read()
        else:
            files[path] = None
    return code, captured.out, captured.err, files


def _against_sequential(tmp_path, capsys, monkeypatch, text):
    """The sweep's outcome, once it is asserted equal to the sequential one."""
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(text)
    batched = _sweep_outcome(capsys, cfg_path, tmp_path / "batched")
    with monkeypatch.context() as m:
        m.setitem(cli._COMMANDS, "sweep", _sequential_sweep)
        sequential = _sweep_outcome(capsys, cfg_path, tmp_path / "sequential")
    assert batched == sequential
    return batched


WEBER_FECHNER = "kind = weber_fechner_log\nv_max = 1.0\ns0 = 0.05"


@pytest.mark.parametrize("swaps, target, values, code", [
    ((), "decay.kappa0", "0.4,0.6", 0),
    ((("[solver]", "[solver]\nbc = periodic"),), "decay.kappa0", "0.3,0.5,0.7", 0),
    (((CONSTANT, EXPONENTIAL),), "decay.lambda", "0.1,-0.3", 0),
    (((CONSTANT, EXPONENTIAL), ("[solver]", "[solver]\nbc = periodic")),
     "decay.lambda", "0.1,0.2,-0.3", 0),
    ((), "initial.amplitude", "0.5,1.5", 0),
    ((), "initial.amplitude", "0.5,1.5,-0.2", 0),
    ((("kind = gaussian", "kind = noise\nnoise = 0.1"),), "run.seed", "1,2,3", 0),
    # the second member's march loses finiteness (InvalidState)
    ((), "initial.amplitude", "1,1e308,2", 3),
    # the second member's implicit stage under kappa0 = -1000 (StepSizeError)
    (((CONSTANT, CONSTANT + "\nallow_negative = true"),), "decay.kappa0", "0.5,-1000,0.7", 3),
    # past the positivity CFL (CFLViolation): the second member at t = 0.35,
    # the third already at t = 0.05, so the batch fails first on the third
    (((TANH, WEBER_FECHNER), ("D = 0.8", "D = 0.1"), ("x_lo = -2.0\nx_hi = 2.0\nn = 32",
      "x_lo = -4.0\nx_hi = 4.0\nn = 64"), ("[initial]", "[initial]\nwidth = 0.3")),
     "initial.amplitude", "0.05,0.1,1", 3),
], ids=["kappa0", "kappa0-periodic", "lambda", "lambda-periodic", "amplitude", "amplitude-3",
        "seed", "invalid-state", "step-size", "cfl"])
def test_a_batched_sweep_is_a_sequential_sweep(tmp_path, capsys, monkeypatch, swaps, target,
                                               values, code):
    # a simulate sweep over [decay], [initial] or [run] marches its members
    # together: the files, their bytes, the exit code, stdout and stderr are
    # those of each member's cmd_simulate one after another.  When a member
    # fails, the members before it are complete and the ones after it absent
    text = _sweep_config("simulate", target, values).replace("t_end = 0.05", "t_end = 0.5")
    for old, new in swaps:
        assert old in text
        text = text.replace(old, new)
    got, _, err, files = _against_sequential(tmp_path, capsys, monkeypatch, text)
    assert got == code
    names = [f"{target}={_convert(*target.split('.'), v)!r}" for v in values.split(",")]
    done = names if code == 0 else names[:1]
    assert [n for n in files if "/" not in n] == sorted(
        done + ([names[1], "failure_report.json"] if code else []))
    for name in done:
        assert files[f"{name}/trajectory.csv"] and files[f"{name}/plot_trajectory.py"]
    assert code == 0 or err.startswith("numerical failure:")


def _counted_operators(monkeypatch):
    """The batch shape of every _Operator prepared from now on."""
    made = []

    class Counted(pde_solver._Operator):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self.batch)

    monkeypatch.setattr(pde_solver, "_Operator", Counted)
    return made


def test_the_bench_sweep_prepares_one_operator(tmp_path, capsys, monkeypatch):
    # pde_march's sweep: two decay rates of the fig-1 model at n = 128
    text = (MINIMAL.replace("x_lo = -2.0\nx_hi = 2.0\nn = 32", "x_lo = -4.0\nx_hi = 4.0\nn = 128")
            .replace("t_end = 0.05\noutput_stride = 10", "t_end = 0.15\noutput_stride = 1000")
            .replace("kind = uniform", "kind = gaussian\nwidth = 0.6")
            + _sweep("decay.kappa0", "0.4,0.7"))
    made = _counted_operators(monkeypatch)
    assert _against_sequential(tmp_path, capsys, monkeypatch, text)[0] == 0
    assert made[0] == (2,) and len(made) == 3  # then the two members one by one


def test_a_sweep_group_past_the_memory_bound_splits(tmp_path, capsys, monkeypatch):
    # each member records 4 frames of 33 nodes (22 steps at output_stride
    # 10): a bound of 264 values holds two members, so three march as a
    # batch of two and a batch of one, and the output is unchanged
    monkeypatch.setattr(pde_solver, "MAX_STEPS", 264)
    text = _sweep_config("simulate", "decay.kappa0", "0.3,0.5,0.7").replace(
        "t_end = 0.05", "t_end = 0.5")
    made = _counted_operators(monkeypatch)
    assert _against_sequential(tmp_path, capsys, monkeypatch, text)[0] == 0
    assert made == [(2,), (), (), (), ()]
    monkeypatch.setattr(pde_solver, "MAX_STEPS", 263)
    made.clear()
    assert _against_sequential(tmp_path, capsys, monkeypatch, text)[0] == 0
    assert made == [()] * 6


def test_reduce_homogeneous_ends_on_the_end_of_a_decay_table(tmp_path):
    # start + (t_end / n) * n rounds to 0.8500000000000001 here, one ulp past
    # the end of the table, which the end itself passes: the last sample time
    # must be the end
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MINIMAL.replace(CONSTANT, "kind = tabulated\ntimes = 0.5,0.85\n"
                                        "values = 0.5,0.7")
                        + "[reduce]\nkind = homogeneous\nt_end = 0.35\nh = 0.001\n")
    assert main(["reduce", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    _, cols = import_csv(str(tmp_path / "o" / "reduce_homogeneous.csv"))
    assert cols["t"].size == 351 and cols["t"][0] == 0.5 and cols["t"][-1] == 0.85


def test_a_refused_grid_gives_its_values(tmp_path, capsys):
    # [grid] as the config is read, and the self-similar half line that a
    # sweep of reduce.xi_max builds, whose refusal names its member, not a
    # [grid] key
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MINIMAL.replace("x_hi = 2.0", "x_hi = -3.0"))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "a")]) == 2
    assert capsys.readouterr().err == (
        "config error: grid needs x_lo < x_hi, got x_lo = -2.0, x_hi = -3.0\n")
    cfg_path.write_text(MINIMAL.replace(TANH, TANH_LOG).replace(CONSTANT, POWER_LAW)
                        + "[reduce]\nkind = self_similar\n"
                        + _sweep("reduce.xi_max", "10,-1", "reduce"))
    assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "b")]) == 2
    assert capsys.readouterr().err == (
        "config error: sweep member reduce.xi_max=-1.0: "
        "grid needs x_lo < x_hi, got x_lo = 0.0, x_hi = -1.0\n")


@pytest.mark.parametrize("command, decay, extra", [
    ("simulate", CONSTANT, ""), ("exact", CONSTANT, ""),
    ("exact", CONSTANT, "[exact]\nfamily = case2_travelling_tanh\n"), ("verify", CONSTANT, ""),
    ("lie", CONSTANT, ""), ("reduce", CONSTANT, "[reduce]\nkind = homogeneous\n"),
    ("reduce", CONSTANT, "[reduce]\nkind = steady_state\n"),
    ("reduce", CONSTANT, "[reduce]\nkind = travelling_wave\n"),
    ("reduce", POWER_LAW, "[reduce]\nkind = self_similar\n"),
] + [("sweep", CONSTANT, _sweep("decay.kappa0", "0.4,0.6", c))
     for c in ("simulate", "exact", "reduce", "verify", "lie")], ids=[
    "simulate", "exact", "exact-case2", "verify", "lie", "reduce-homogeneous",
    "reduce-steady_state", "reduce-travelling_wave", "reduce-self_similar", "sweep-simulate",
    "sweep-exact", "sweep-reduce", "sweep-verify", "sweep-lie"])
def test_a_command_without_an_outdir_checks_and_returns_none(tmp_path, monkeypatch, command,
                                                             decay, extra):
    # the check phase alone: no march, closure solve, sampling, reduction,
    # residual, Lie report or write is reached, and no file is made; the
    # closed-form families are built there
    def reached(*args, **kwargs):
        raise AssertionError("the check phase went on to the work")

    for module, names in [
        (pde_solver, ["_Operator"]),
        (reduced_systems, ["solve_steady_state", "integrate_travelling_wave",
                           "solve_self_similar"]),
        (exact_solutions, ["case2_travelling_tanh"]),
        (exact_solutions.ExactSolution, ["frames"]),
        (verify, ["pde_residual"]),
        (lie_toolkit, ["classification_report", "verify_optimal_system"]),
        (cli, ["_write_set"]),
    ]:
        for name in names:
            monkeypatch.setattr(module, name, reached)
    monkeypatch.chdir(tmp_path)
    text = MINIMAL.replace(CONSTANT, decay)
    if "self_similar" in extra:  # the self-similar reduction's limiter
        text = text.replace(TANH, TANH_LOG)
    cfg = parse_config(text + extra, command=command)
    assert cli._COMMANDS[command](cfg) is None
    assert os.listdir(tmp_path) == []


def _number_keys():
    """Every schema key whose converter yields a float or a tuple of floats,
    but [sweep] values, which the sweep reads as its key's, and whether the
    key's converter also refuses 0."""
    keys = []
    for section, body in _SCHEMA.items():
        for key in body:
            try:
                value = _convert(section, key, "1")
            except ValidationError:
                continue
            if isinstance(value, (float, tuple)) and (section, key) != ("sweep", "values"):
                try:
                    _convert(section, key, "0")
                    keys.append((section, key, False))
                except ValidationError:
                    keys.append((section, key, True))
    return keys


@pytest.mark.parametrize("section, key, positive",
                         [pytest.param(*k, id=f"{k[0]}.{k[1]}") for k in _number_keys()])
def test_every_number_is_refused_by_name_through_every_door(tmp_path, capsys, section, key,
                                                             positive):
    # a config file, an override and a sweep value all refuse a non-finite
    # number, and a positive key 0 or less, as the config is read: exit 2,
    # the key named, no file written, whether or not the command reads it
    target = f"{section}.{key}"
    cfg_path = tmp_path / "cfg.ini"
    for i, value in enumerate(["nan", "inf", "-inf"] + ["0", "-1"] * positive):
        doors = {
            "file": (MINIMAL + f"[{section}]\n{key} = {value}\n", [], "simulate"),
            "override": (MINIMAL, ["--override", f"{target}={value}"], "simulate"),
            "sweep": (MINIMAL + _sweep(target, f"1,{value}"), [], "sweep"),
        }
        for door, (text, extra, command) in doors.items():
            cfg_path.write_text(text)
            out = tmp_path / f"{door}-{i}"
            assert main([command, "--config", str(cfg_path), "--out", str(out)] + extra) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and target in err, (door, value, err)
            assert not out.exists() if door != "sweep" else os.listdir(out) == []


@pytest.mark.parametrize("command, report", [("verify", "residual_report.json"),
                                             ("lie", "lie_report.json")])
def test_unwritable_json_report_exits_4(tmp_path, capsys, command, report):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MINIMAL)
    out = tmp_path / "o"
    (out / report).mkdir(parents=True)
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and report in err
    assert "Traceback" not in err


def _listing(root):
    """Every file and directory under root, as sorted relative paths."""
    return sorted(os.path.relpath(os.path.join(d, name), root)
                  for d, dirs, files in os.walk(root) for name in dirs + files)


@pytest.mark.parametrize("command, last", [
    ("verify", "residual_report.json"), ("lie", "lie_report.csv"),
    ("simulate", "plot_trajectory.py"), ("exact", "plot_trajectory.py"),
    ("reduce", "plot_profiles.py"), ("sweep", "decay.kappa0=0.6/plot_trajectory.py"),
])
def test_failed_report_write_leaves_no_partial_set(tmp_path, capsys, command, last):
    # a directory in place of the last file of the set makes its write fail;
    # exact samples case1_homogeneous, reduce runs homogeneous, and the
    # sweep's first member is a whole set of its own, so it stays
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MINIMAL + _sweep("decay.kappa0", "0.4,0.6"))
    out = tmp_path / "o"
    (out / last).mkdir(parents=True)
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith("i/o error:")
    kept = ["decay.kappa0=0.4", "decay.kappa0=0.4/plot_trajectory.py",
            "decay.kappa0=0.4/trajectory.csv", "decay.kappa0=0.6"] if command == "sweep" else []
    assert _listing(out) == sorted(kept + [last])


def test_unwritable_failure_report_still_exits_3(tmp_path, capsys):
    # at t = 800 under lambda = -1, case IV's Ei argument kappa0
    # e^(lambda t)/(tau lambda) underflows to Ei's singularity (DomainError)
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MINIMAL.replace(CONSTANT, "kind = exponential\nkappa0 = 0.5\nlambda = -1")
                        + "[exact]\nfamily = case4_homogeneous\nt_samples = 1,800\n")
    out = tmp_path / "o"
    (out / "failure_report.json").mkdir(parents=True)
    assert main(["exact", "--config", str(cfg_path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "Traceback" not in err
    assert _listing(out) == ["failure_report.json"]
    # with the directory gone, the same run leaves its report
    os.rmdir(out / "failure_report.json")
    assert main(["exact", "--config", str(cfg_path), "--out", str(out)]) == 3
    report = json.loads((out / "failure_report.json").read_text())
    assert report["error"] == "DomainError"


def test_stalled_newton_leaves_its_history_in_the_failure_report(tmp_path, capsys):
    # the fig-1 model on [-4, 4] from this Gaussian stalls in the line search
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(
        MINIMAL.replace("x_lo = -2.0\nx_hi = 2.0", "x_lo = -4.0\nx_hi = 4.0")
        .replace("kind = uniform", "kind = gaussian\namplitude = 0.371305088247709\n"
                 "center = 0.3222399271663715\nwidth = 0.5")
        + "[reduce]\nkind = steady_state\nn = 256\n")
    out = tmp_path / "o"
    assert main(["reduce", "--config", str(cfg_path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    report = json.loads((out / "failure_report.json").read_text())
    assert report["error"] == "NoConvergence" and report["iterations"] == 10
    assert report["residual"] == report["history"][-1] > 1e-10
    assert err == f"numerical failure: {report['message']}\n"


def test_out_below_a_regular_file_exits_4(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MINIMAL)
    (tmp_path / "file").write_text("")
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "file" / "o")]) == 4
    assert capsys.readouterr().err.startswith("error: cannot create output directory:")


def test_exact_names_the_first_non_finite_sample_and_writes_no_set(tmp_path, capsys, monkeypatch):
    # the second of three frames is non-finite at two interior nodes, v at
    # x = 0.5 before u at x = 1.25, and the third frame at x = -1, earlier
    # in x but later in row order: the first frame and every edge are finite
    from flks import cli
    from flks.exact_solutions import ExactSolution

    def u(x, t):
        bad = (np.isclose(x, 1.25) & (t >= 1.0)) | (np.isclose(x, -1.0) & (t == 2.0))
        return np.where(bad, np.nan, 1.0)

    def v(x, t):
        return np.where(np.isclose(x, 0.5) & (t == 1.0), -np.inf, 0.0)

    sol = ExactSolution(u, v, {})
    monkeypatch.setitem(cli._FAMILIES, "case1_homogeneous",
                        (lambda cfg, params, e: lambda: sol, ()))
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MINIMAL + "[exact]\nt_samples = 0.5,1,2\n")
    out = tmp_path / "o"
    assert main(["exact", "--config", str(cfg_path), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "numerical failure: non-finite sample at x=0.5, t=1\n"
    assert _listing(out) == ["failure_report.json"]


def test_exact_uniform_family_names_x_lo_when_non_finite(tmp_path, capsys, monkeypatch):
    # an x-independent v is one value per frame: an infinite one makes every
    # frame non-finite, and the first (x, t) in row order is x_lo at the
    # first time
    from flks import cli, exact_solutions

    sol = exact_solutions._uniform(1.0, lambda t: np.full_like(t, np.inf), {})
    monkeypatch.setitem(cli._FAMILIES, "case1_homogeneous",
                        (lambda cfg, params, e: lambda: sol, ()))
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MINIMAL + "[exact]\nt_samples = 0.5,1,2\n")
    out = tmp_path / "o"
    assert main(["exact", "--config", str(cfg_path), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "numerical failure: non-finite sample at x=-2, t=0.5\n"
    assert _listing(out) == ["failure_report.json"]


# --- the CSV layer against its reference: np.savetxt and the per-line reader

def _reference_body(table):
    buf = io.StringIO()
    np.savetxt(buf, table, fmt="%.17g", delimiter=",")
    return buf.getvalue()


def _reference_import(path):
    # one cell at a time: split each line, append each cell, float() each one
    lines = open(path, encoding="utf-8").read().splitlines()
    meta, idx = {}, 0
    while idx < len(lines) and lines[idx].startswith("#"):
        meta.update(json.loads(lines[idx][1:].strip()))
        idx += 1
    header = lines[idx].split(",")
    cols = {h: [] for h in header}
    for line in lines[idx + 1 :]:
        if not line:
            continue
        for h, val in zip(header, line.split(",")):
            cols[h].append(val)
    out = {}
    for h, vals in cols.items():
        try:
            out[h] = np.asarray([float(v) for v in vals])
        except ValueError:
            out[h] = np.asarray(vals)
    return meta, out


SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 2.0**-1074 * 3, 1e308,
                    -1.7976931348623157e308, 1 / 3, 0.1, 1.0, 0.0])


def _long_trajectory(frames, nodes, rng):
    # a trajectory built directly, without a march
    from flks.pde_solver import Trajectory

    us, vs = (rng.standard_normal((frames, nodes)) * 10.0 ** rng.integers(-300, 300, (frames, nodes))
              for _ in range(2))
    return Trajectory(Grid1D(-1.0, 2.0, nodes - 1), "neumann", np.linspace(0.0, 1.0, frames) / 3.0,
                      us, vs, np.zeros(frames), np.zeros(frames), 0)


def _reference_long_table(times, x, us, vs):
    return np.column_stack([np.repeat(times, x.size), np.tile(x, len(times)),
                            np.ravel(us), np.ravel(vs)])


def _csv_results():
    # a trajectory, a profile result and a 2-D table longer than one block
    # that does not end on a block boundary, each holding the special values;
    # the long trajectory's frames span three blocks of nodes, the special
    # values in the first and last frame straddling a block boundary
    from flks.reduced_systems import SteadyStateResult

    p = ModelParams(D=0.8, tau=0.1, limiter=TanhLimiter(1.1, 1.4), decay=ConstantDecay(0.5))
    rng = np.random.default_rng(3)
    traj = run(FieldPair(1.0 + 0.1 * rng.random(17), rng.random(17)), p,
               SolverConfig(grid=Grid1D(0.0, 1.0, 16), t_end=0.02, output_stride=3))
    traj.us[1, : SPECIAL.size] = SPECIAL
    xs = np.linspace(0.0, 1.0, 40)
    profile = SteadyStateResult(xs, np.resize(SPECIAL, 40), rng.standard_normal(40), 0.0, [], 0)
    rows = 2 * _BLOCK_ROWS + 37
    table = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-300, 300, (rows, 3))
    table[-SPECIAL.size :, 1] = SPECIAL
    table[: SPECIAL.size, 2] = SPECIAL[::-1]
    long_traj = _long_trajectory(3, 2 * _BLOCK_ROWS + 37, rng)
    edge = slice(_BLOCK_ROWS - SPECIAL.size // 2, _BLOCK_ROWS + SPECIAL.size // 2)
    long_traj.us[0, edge] = long_traj.vs[2, edge] = SPECIAL
    long_traj.vs[1, -SPECIAL.size :] = long_traj.us[1, : SPECIAL.size] = SPECIAL

    def with_table(t):
        return t, _reference_long_table(t.times, t.grid.nodes(), t.us, t.vs)

    return {
        "trajectory": with_table(traj),
        "long_trajectory": with_table(long_traj),
        "profile": (profile, np.column_stack([xs, profile.U, profile.V])),
        "table": (table, table),
    }


def _uniform_frames(nodes, rng):
    # frames whose u, v or both are one value, each special value once as u
    # and once as v, the rest random node arrays
    x = np.linspace(-1.0, 2.0, nodes)
    count = 2 * SPECIAL.size + 1
    times = np.linspace(0.0, 1.0, count) / 3.0
    us, vs = (list(rng.standard_normal((count, nodes))
                   * 10.0 ** rng.integers(-300, 300, (count, nodes))) for _ in range(2))
    for k, value in enumerate(SPECIAL):
        us[k], vs[SPECIAL.size + k] = value, value
    us[-1], vs[-1] = 1 / 3, -0.0
    return _Frames(times, x, us, vs), _reference_long_table(
        times, x, *([np.broadcast_to(a, x.shape) for a in f] for f in (us, vs)))


def _exact_samples(tmp_path, family, decay, n):
    # exact's own output at three times and the long table of its family
    # sampled on the grid, a fresh instance evaluating each field on all
    # nodes at all times in one call
    from flks.cli import build_grid

    text = (MINIMAL.replace(CONSTANT, SAMPLED_DECAY_TEXT[decay]).replace("n = 32", f"n = {n}")
            + f"[exact]\nfamily = {family}\nt_samples = 0.5,1,2.25\n")
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(text)
    assert main(["exact", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    cfg = parse_config(text, command="exact")
    sol = _FAMILIES[family][0](cfg, build_model(cfg), cfg.sections["exact"])()
    grid = build_grid(cfg)
    x, ts = grid.nodes(), np.array([0.5, 1.0, 2.25])
    fields = [np.broadcast_to(np.asarray(ev(x[:, None], ts), dtype=float), (x.size, ts.size)).T
              for ev in (sol.eval_u, sol.eval_v)]
    table = _reference_long_table(ts, x, *fields)
    return tmp_path / "o" / f"{family}.csv", table


# the sample times 0.5, 1 and 2.25 inside a table with a knot between them
SAMPLED_DECAY_TEXT = dict(DECAY_TEXT,
                          tabulated="kind = tabulated\ntimes = 0.0,1.5,3.0\nvalues = 0.5,0.9,0.7")
# kind -> (family, decay kind, cells): every grid-sampled family under every
# decay kind that admits it; "exact" is the cell-free front under constant
# decay, with an x-dependent v, and "exact_uniform" the x-independent case IV
# family on three blocks of nodes
EXACT_KINDS = {f"exact-{family}-{decay}": (family, decay, 32)
               for family, (_, kinds) in _FAMILIES.items() if family != "case2_travelling_tanh"
               for decay in kinds or _DECAY_KINDS}
EXACT_KINDS["exact"] = EXACT_KINDS.pop("exact-case4_cellfree_front-constant")
EXACT_KINDS["exact_uniform"] = (*EXACT_KINDS.pop("exact-case4_homogeneous-exponential")[:2],
                                2 * _BLOCK_ROWS + 36)


@pytest.mark.parametrize("kind", ["trajectory", "long_trajectory", "profile", "table",
                                  "uniform_frames", *EXACT_KINDS])
def test_csv_body_is_byte_identical_to_savetxt(tmp_path, kind):
    # each exact kind splices its x-independent fields as one cell per frame
    if kind in EXACT_KINDS:
        path, table = _exact_samples(tmp_path, *EXACT_KINDS[kind])
    else:
        result, table = (_uniform_frames(_BLOCK_ROWS + 3, np.random.default_rng(5))
                         if kind == "uniform_frames" else _csv_results()[kind])
        path = tmp_path / "r.csv"
        export_csv(result, str(path))
    text = path.read_text()
    # after the JSON line and the column header; compared line by line, so a
    # failure names its first wrong line instead of diffing megabytes
    body = text.split("\n", 2)[2].split("\n")
    ref = _reference_body(table).split("\n")
    first = next((i for i, (a, b) in enumerate(zip(body, ref)) if a != b), min(len(body), len(ref)))
    same = body == ref
    assert same, f"line {first + 3}: {body[first:first + 1]} != {ref[first:first + 1]}"
    assert len(body) == table.shape[0] + 1


# hand-written files: name -> (bytes, whether the body is re-read cell by cell)
_IMPORT_TEXTS = {
    # cells only float() reads
    "underscore-and-arabic-indic-digit": ("a,b,c\n1_000,\u0663,1\n2,3,4\n", True),
    # cells both readers take
    "spaced-signed-special": ("a,b,c,d,e,f,g\n 7 ,+.5e-3,-Infinity,1e400,nan,-0,-nan\n"
                              "1,2,3,4,5,6,7\n", False),
    # str.splitlines ends the line at the form feed, a file does not
    "form-feed-first-cell": ("a,b\n\x0c8,1\n2,\x0c\n", True),
    "empty-cell": ("a,b\n1,\n2,3\n", True),
    "blank-lines": ("a,b\n\n1,2\n\n\n3,4\n\n", False),
    "crlf": ("a,b\r\n1,2\r\n3,4\r\n", False),
    "hash-in-report-value": ("key,value\nnote,a # b\nx,1\n", True),
    "one-row": ("a,b,c\n1,2,3\n", False),
    "header-only": ("a,b\n", True),
}


@pytest.mark.parametrize("kind", ["trajectory", "profile", "table", "report", *_IMPORT_TEXTS])
def test_import_matches_the_reference_reader(tmp_path, monkeypatch, kind):
    from flks import cli

    path = tmp_path / "r.csv"
    cell_reader = kind == "report"
    if kind == "report":
        export_csv({"sup_norm": 1e-9, "worst_x": -0.0, "nan_entry": float("nan"), "n": 7},
                   str(path))
    elif kind in _IMPORT_TEXTS:
        text, cell_reader = _IMPORT_TEXTS[kind]
        path.write_bytes(('# {"kind": "table", "note": "#, #"}\n' + text).encode("utf-8"))
    else:
        export_csv(_csv_results()[kind][0], str(path), meta={"note": "a, b"})
    # which reader took the body: numpy's C reader, or the cell-by-cell re-read
    re_reads = []
    read_cells = cli._read_cells
    monkeypatch.setattr(cli, "_read_cells", lambda p: re_reads.append(p) or read_cells(p))
    meta, cols = import_csv(str(path))
    ref_meta, ref_cols = _reference_import(str(path))
    assert bool(re_reads) == cell_reader
    assert meta == ref_meta
    assert list(cols) == list(ref_cols)
    for name, col in cols.items():
        assert col.dtype == ref_cols[name].dtype and col.shape == ref_cols[name].shape
        assert col.flags.c_contiguous
        assert col.tobytes() == ref_cols[name].tobytes()
    if kind == "report":
        assert cols["key"].dtype.kind == "U" and cols["value"].dtype == float
        assert list(cols["key"]) == ["n", "nan_entry", "sup_norm", "worst_x"]


_RAGGED = ["1,2", "1,2,3,4", "x", "1,\x0c2,3", "1,2\u2028,3"]


@pytest.mark.parametrize("lead, row", [
    *(pytest.param(1, row, id=row) for row in _RAGGED[:3]),
    *(pytest.param(1, row, id=f"{row!r}") for row in _RAGGED[3:]),
    *(pytest.param(10_000, row, id=f"after-10k-{row!r}") for row in _RAGGED),
])
def test_import_ragged_row_raises(tmp_path, lead, row):
    # a short or long row would shift later cells into the wrong columns; the
    # error counts the skipped blank line before it.  str.splitlines ends a
    # line at a form feed or U+2028, so those rows are short too.  After 10k
    # valid rows the C reader has read rows before it hands over
    path = tmp_path / "ragged.csv"
    text = '# {"kind": "table"}\na,b,c\n' + "1,2,3\n" * lead + f"\n{row}\n4,5,6\n"
    path.write_bytes(text.encode("utf-8"))
    cells = row.splitlines()[0].count(",") + 1
    message = f"ragged.csv, line {lead + 4}: {cells} cells, the header has 3$"
    with pytest.raises(IoError, match=message):
        import_csv(str(path))


def test_import_rows_all_narrower_than_the_header_raises(tmp_path):
    # the C reader reads a table of uniform width 2 and hands it over
    path = tmp_path / "narrow.csv"
    path.write_text('# {"kind": "table"}\na,b,c\n1,2\n3,4\n')
    with pytest.raises(IoError, match="narrow.csv, line 3: 2 cells, the header has 3$"):
        import_csv(str(path))


def test_import_peak_memory_stays_near_its_arrays(tmp_path):
    # a 51,200-row trajectory (100 frames of 512 nodes): the traced peak of
    # an import stays under 3x the arrays it returns; a reader that holds
    # every line and cell of the body as a str peaks near 16x
    import tracemalloc

    rows = 100 * 512
    rng = np.random.default_rng(5)
    table = np.column_stack([np.repeat(np.linspace(0.0, 1.0, 100), 512),
                             np.tile(np.linspace(-5.0, 5.0, 512), 100),
                             rng.random(rows), rng.standard_normal(rows)])
    path = tmp_path / "trajectory.csv"
    export_csv(table, str(path), meta={"kind": "trajectory"}, columns=["t", "x", "u", "v"])
    import_csv(str(path))  # warm-up, so one-off first-call allocations are not counted
    tracemalloc.start()
    try:
        _, cols = import_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nbytes = sum(col.nbytes for col in cols.values())
    assert nbytes == rows * 4 * 8
    assert peak < 3 * nbytes, f"peak {peak / nbytes:.1f}x the returned arrays"


def test_export_peak_memory_stays_below_its_arrays(tmp_path):
    # a 37,925-row trajectory (37 frames of 1,025 nodes): the traced peak of
    # an export stays under the nbytes of its u and v arrays; writing through
    # the long (t, x, u, v) table and its column_stack peaks near 6x
    import tracemalloc

    traj = _long_trajectory(37, 1025, np.random.default_rng(7))
    path = tmp_path / "trajectory.csv"
    export_csv(traj, str(path))  # warm-up, so one-off first-call allocations are not counted
    tracemalloc.start()
    try:
        export_csv(traj, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nbytes = traj.us.nbytes + traj.vs.nbytes
    assert peak < nbytes, f"peak {peak / nbytes:.2f}x the u and v arrays"


@pytest.mark.parametrize("text", ["", '# {"kind": "table"}\n', "# {}\n# {}\n"],
                         ids=["empty", "one-comment", "two-comments"])
def test_import_without_column_header_raises_ioerror(tmp_path, text):
    path = tmp_path / "headless.csv"
    path.write_text(text)
    with pytest.raises(IoError, match="headless.csv"):
        import_csv(str(path))


@pytest.mark.parametrize("comment", ["# not json", "# [1, 2]", "# 5", '# {"a": '])
def test_import_non_json_comment_raises_ioerror(tmp_path, comment):
    path = tmp_path / "comment.csv"
    path.write_text(f"{comment}\na,b\n1,2\n")
    with pytest.raises(IoError, match="comment.csv"):
        import_csv(str(path))


def test_import_non_utf8_file_raises_ioerror(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b'# {"kind": "table"}\na,b\n1,\xe9\n')
    with pytest.raises(IoError, match="latin1.csv"):
        import_csv(str(path))


def test_import_repeated_column_name_raises_ioerror(tmp_path):
    path = tmp_path / "twice.csv"
    path.write_text("# {}\na,a\n1,2\n")
    with pytest.raises(IoError, match="twice.csv"):
        import_csv(str(path))


@pytest.mark.parametrize("value", ["a,b", "two\nlines", "cr\r", "form\x0cfeed", "ls\u2028"])
def test_export_rejects_a_report_cell_import_would_split(tmp_path, value):
    path = tmp_path / "report.csv"
    with pytest.raises(ValidationError, match="'note'"):
        export_csv({"note": value, "x": 1.0}, str(path))
    assert not path.exists()


def test_export_import_roundtrip_clean_report(tmp_path):
    report = {"family": "case1_homogeneous", "sup_norm": 1.2345678901234567e-9,
              "worst_x": -0.0, "n": 7, "note": "a; b (c)"}
    path = tmp_path / "report.csv"
    export_csv(report, str(path))
    meta, cols = import_csv(str(path))
    assert meta["kind"] == "report"
    assert list(cols["key"]) == sorted(report)
    back = dict(zip(cols["key"], cols["value"]))
    assert back["family"] == "case1_homogeneous" and back["note"] == "a; b (c)"
    for key in ("sup_norm", "worst_x", "n"):
        assert float(back[key]) == report[key]
    assert str(float(back["worst_x"])) == "-0.0"


# --- the run horizon

@pytest.mark.parametrize(
    "decay, t_end",
    [(CONSTANT, "inf"), (CONSTANT, "-inf"), (CONSTANT, "nan"), (CONSTANT, "-1"),
     (POWER_LAW, "0.5"), (POWER_LAW, "0")],
)
def test_simulate_rejects_a_bad_horizon(tmp_path, capsys, decay, t_end):
    # an infinite horizon never returned; NaN or a horizon before the start
    # time (t0 = 1 under power-law decay) exited 0 after zero steps
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MINIMAL.replace(CONSTANT, decay).replace("t_end = 0.05", f"t_end = {t_end}"))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_zero_horizon_is_a_valid_config():
    # solve_steady_state builds its operator's config with t_end = 0
    config = SolverConfig(grid=Grid1D(0.0, 1.0, 8), t_end=0.0)
    p = ModelParams(D=0.8, tau=0.1, limiter=TanhLimiter(1.1, 1.4), decay=ConstantDecay(0.5))
    traj = run(FieldPair(np.ones(9), np.zeros(9)), p, config)
    assert traj.steps_taken == 0 and traj.times.tolist() == [0.0]


# --- config fuzzing: any config text exits 0, 2, 3 or 4, never a traceback

def _sections(text):
    sections, current = {}, None
    for line in text.strip().splitlines():
        if line.startswith("["):
            current = sections.setdefault(line[1:-1], {})
        else:
            key, _, value = line.partition(" = ")
            current[key] = value
    return sections


FUZZ_BASE = _sections(MINIMAL.replace("n = 32", "n = 16").replace("t_end = 0.05", "t_end = 0.001"))
FUZZ_CONFIGS = {
    "simulate": FUZZ_BASE,
    "exact": {**FUZZ_BASE, "exact": {"family": "case1_homogeneous", "t_samples": "0.001"}},
    "reduce": {**FUZZ_BASE, "reduce": {"kind": "homogeneous", "t_end": "0.001", "h": "0.0001"}},
    "verify": {**FUZZ_BASE, "verify": {"family": "case1_homogeneous", "t_samples": "0.5"}},
    "lie": FUZZ_BASE,
}
# the findings' base configs: the fuzzed ones, the traveling, self-similar
# and steady reductions, the traveling wave and case IV
EXPONENTIAL_SECTION = _sections("[decay]\n" + EXPONENTIAL)["decay"]
FINDING_CONFIGS = dict(FUZZ_CONFIGS, **{
    "reduce travelling_wave": {
        **FUZZ_BASE, "reduce": {"kind": "travelling_wave", "y_hi": "0.01", "h": "0.001"}},
    "reduce self_similar": {
        **FUZZ_BASE, "limiter": {"kind": "tanh_log", "v_max": "1.1", "a": "0.51"},
        "decay": {"kind": "power_law", "mu": "0.5"}, "reduce": {"kind": "self_similar"}},
    "exact case2_travelling_tanh": {
        **FUZZ_BASE, "exact": {"family": "case2_travelling_tanh", "t_samples": "0.5"}},
    "exact case4_cellfree_front": {
        **FUZZ_BASE, "exact": {"family": "case4_cellfree_front", "t_samples": "0.5"}},
    "reduce steady_state": {**FUZZ_BASE, "reduce": {"kind": "steady_state"}},
    # a seeded initial state, a Gaussian one, and a run that takes no step
    "simulate noise": {**FUZZ_BASE, "initial": {"kind": "noise", "u0": "1.0", "noise": "0.01"}},
    "simulate gaussian": {**FUZZ_BASE, "initial": {"kind": "gaussian", "u0": "1.0"}},
    "simulate no step": {**FUZZ_BASE, "solver": {**FUZZ_BASE["solver"], "t_end": "0"}},
    # finite endpoints whose difference overflows
    "simulate wide": {**FUZZ_BASE, "grid": {**FUZZ_BASE["grid"], "x_lo": "-1e308"}},
    # frames x nodes: a run or a sampling whose recorded values no machine holds
    "simulate frames": {**FUZZ_BASE, "grid": {**FUZZ_BASE["grid"], "n": "100000"},
                        "solver": {"t_end": "0.05", "output_stride": "10"}},
    "exact frames": {**FUZZ_BASE, "exact": {"family": "case1_homogeneous",
                                            "t_samples": "0.5,1,2"}},
    # case IV, whose v(t) is evaluated through Ei
    "exact case4_homogeneous": {**FUZZ_BASE, "decay": EXPONENTIAL_SECTION, "exact": {
        "family": "case4_homogeneous", "t_samples": "0.5"}},
    "verify case4_homogeneous": {**FUZZ_BASE, "decay": EXPONENTIAL_SECTION, "verify": {
        "family": "case4_homogeneous", "t_samples": "0.5"}},
    # a sweep of a key with no values
    "sweep": {**FUZZ_BASE, "sweep": {"section": "decay", "key": "kappa0"}},
    # the uniform families and reduction under power-law decay and the decay
    # table TABLE, and case III
    **{f"{command} {name}": {**FUZZ_CONFIGS[command],
                             "decay": _sections("[decay]\n" + decay)["decay"]}
       for command in ("exact", "verify", "reduce")
       for name, decay in (("power_law", POWER_LAW), ("tabulated", TABLE))},
    "exact power_law case3_homogeneous": {
        **FUZZ_BASE, "decay": _sections("[decay]\n" + POWER_LAW)["decay"],
        "exact": {"family": "case3_homogeneous", "t_samples": "0.5"}},
})
# every schema key of the command's sections, one unknown key and one unknown
# section
FUZZ_KEYS = {command: sorted((s, k) for s in sections for k in _SCHEMA[s])
             + [("model", "bogus"), ("nonsense", "x")]
             for command, sections in FUZZ_CONFIGS.items()}
# wrong types, non-finite, zero, negative and integer-valued floats; no huge
# finite value, so no key that sets the run length makes an example slow
FUZZ_VALUES = ["nan", "-nan", "inf", "-inf", "0", "0.0", "-0.0", "-1", "-2.5", "1", "2.0",
               "abc", "true", "", "1,2"]


@st.composite
def _mutated_config(draw):
    command = draw(st.sampled_from(sorted(FUZZ_CONFIGS)))
    sections = {s: dict(body) for s, body in FUZZ_CONFIGS[command].items()}
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["set", "drop_key", "drop_section"]))
        if op == "set":
            section, key = draw(st.sampled_from(FUZZ_KEYS[command]))
            sections.setdefault(section, {})[key] = draw(st.sampled_from(FUZZ_VALUES))
        elif sections:
            section = draw(st.sampled_from(sorted(sections)))
            if op == "drop_section" or not sections[section]:
                del sections[section]
            else:
                del sections[section][draw(st.sampled_from(sorted(sections[section])))]
    return command, sections


def _ini(sections):
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
                   for name, body in sections.items())


def _main_on(command, sections):
    """main's exit code on the config sections, and the regular files it
    left under its output directory, as sorted relative paths."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "cfg.ini")
        with open(cfg_path, "w") as f:
            f.write(_ini(sections))
        out = os.path.join(tmp, "o")
        code = main([command, "--config", cfg_path, "--out", out])
        files = sorted(os.path.relpath(os.path.join(d, f), out)
                       for d, _, names in os.walk(out) for f in names
                       if os.path.isfile(os.path.join(d, f)))
        return code, files


@settings(max_examples=400, deadline=None)
@given(case=_mutated_config())
def test_fuzzed_config_exits_with_a_contract_code(case):
    assert _main_on(*case)[0] in (0, 2, 3, 4)


# config findings: (base in FINDING_CONFIGS, section, key, value, exit code)
FINDINGS = [("reduce", "reduce", "t_end", "inf", 2), ("reduce", "reduce", "t_end", "nan", 2),
    ("reduce", "reduce", "h", "nan", 2), ("reduce", "reduce", "h", "0", 2),
    ("reduce", "reduce", "t_end", "-1", 2), ("reduce", "reduce", "t_end", "0", 2),
    ("verify", "verify", "t_samples", "", 2), ("verify", "verify", "ht", "0", 2),
    ("verify", "exact", "V0", "inf", 2), ("reduce", "reduce", "U0", "nan", 2),
    ("exact", "exact", "V0", "inf", 2), ("exact", "exact", "t_samples", "", 2),
    ("verify", "exact", "C", "1e308", 3), ("reduce", "reduce", "U0", "1e308", 3),
    ("exact", "exact", "C", "1e308", 3), ("reduce", "reduce", "h", "inf", 2),
    ("exact", "exact", "t0", "inf", 2), ("reduce self_similar", "reduce", "C1", "nan", 2),
    ("reduce travelling_wave", "reduce", "alpha", "nan", 2),
    ("exact", "exact", "t_samples", "0.5,0.5", 2), ("reduce", "reduce", "t_end", "1e300", 2),
    ("reduce travelling_wave", "reduce", "y_hi", "-1", 2),
    ("reduce travelling_wave", "reduce", "y_hi", "0", 2),
    ("reduce travelling_wave", "reduce", "y_hi", "1e300", 2),
    ("reduce self_similar", "reduce", "xi_max", "0", 2),
    ("reduce self_similar", "reduce", "xi_max", "-3", 2),
    ("reduce self_similar", "reduce", "n", "0", 2), ("reduce self_similar", "reduce", "n", "3", 2),
    ("reduce self_similar", "reduce", "n", "6", 2), ("reduce self_similar", "reduce", "n", "7", 2),
    ("reduce self_similar", "reduce", "n", "8", 0),
    ("exact case2_travelling_tanh", "exact", "n", "0", 2),
    ("exact case2_travelling_tanh", "exact", "n", "2", 2),
    ("exact", "grid", "n", "1000000000000", 2),
    ("reduce steady_state", "reduce", "n", "1000000000000", 2),
    ("reduce self_similar", "reduce", "n", "1000000000000", 2),
    ("exact case2_travelling_tanh", "exact", "n", "1000000000000", 2),
    ("exact case2_travelling_tanh", "exact", "window_hi", "inf", 2),
    ("exact case2_travelling_tanh", "exact", "alpha", "1e-200", 2),
    ("exact case4_cellfree_front", "exact", "alpha", "1e-200", 2),
    ("exact case2_travelling_tanh", "exact", "alpha", "0", 2),
    ("exact case4_cellfree_front", "exact", "alpha", "0", 2),
    ("simulate", "solver", "t_end", "1e300", 2),
    ("simulate frames", "solver", "output_stride", "1", 2),
    ("simulate frames", "solver", "output_stride", "50", 2),
    ("exact frames", "grid", "n", "5000000", 2),
    ("exact case4_homogeneous", "exact", "t_samples", "nan", 2),
    ("exact case4_homogeneous", "exact", "t0", "nan", 2),
    ("verify case4_homogeneous", "verify", "t_samples", "nan", 2),
    ("exact", "exact", "t_samples", "0.5,inf", 2), ("verify", "verify", "t_samples", "inf", 2),
    ("simulate gaussian", "initial", "width", "0", 2),
    ("simulate gaussian", "initial", "width", "nan", 2),
    ("simulate gaussian", "initial", "width", "1e-200", 2),
    ("simulate gaussian", "initial", "u0", "nan", 2),
    ("simulate gaussian", "initial", "amplitude", "inf", 2),
    ("simulate no step", "initial", "v0", "nan", 2),
    ("simulate", "limiter", "v_max", "1e308", 2),
    ("simulate wide", "grid", "x_hi", "1e308", 2),
    ("simulate noise", "run", "seed", "-1", 2), ("simulate", "run", "command", "exact", 2),
    ("sweep", "sweep", "command", "simulate", 2),
    ("lie", "grid", "n", "2", 2), ("lie", "grid", "n", "1000000000000", 2),
    ("reduce", "grid", "n", "2", 2),
    ("exact power_law", "exact", "t0", "-1", 2),
    ("exact power_law case3_homogeneous", "exact", "t0", "-1", 2),
    ("exact tabulated", "exact", "t_samples", "1,5", 2),
    ("exact tabulated", "exact", "t0", "5", 2),
    ("verify power_law", "verify", "t_samples", "0.0005", 2),
    ("verify tabulated", "verify", "t_samples", "2.9995", 2),
    ("reduce tabulated", "reduce", "t_end", "5", 2),
    ("exact case4_homogeneous", "decay", "kappa0", "0", 2),
    ("exact case4_homogeneous", "exact", "t0", "5000", 2),
    ("verify case4_homogeneous", "decay", "kappa0", "0", 2),
    ("verify case4_homogeneous", "exact", "t0", "5000", 2)]


@pytest.mark.parametrize("command, section, key, value, code", FINDINGS)
def test_fuzz_findings_exit_with_a_contract_code(command, section, key, value, code):
    # an infinite or NaN span and a NaN step ended in OverflowError or
    # ValueError in the RK4 march, no sample time in ZeroDivisionError; a
    # span ending before its start marched one step backwards and exited 0;
    # a zero ht and a NaN residual passed verify with sup_norm = -1; a NaN
    # reduce state and infinite exact samples were written with exit 0; no
    # exact sample time or a repeated one wrote a CSV its plot script died on;
    # a span of 1e300 ended in np.arange's ValueError, and a traveling span
    # ending at or before y_lo = 0 was marched backwards and exited 0; a
    # self-similar half-line of length 0 or fewer than 8 intervals ended in a
    # traceback and a reversed one exited 0, and a traveling wave on fewer
    # than 3 intervals ended in a traceback or exited 3.  A size of 1e12 no
    # machine can allocate ended in numpy's MemoryError, and a run to
    # t_end = 1e300 never ended: each is refused before any allocation.  So
    # are more recorded values than MAX_STEPS, frames times nodes: simulate
    # at n = 100000 asked for ~11 GB of frames and ended in numpy's
    # _ArrayMemoryError.  An alpha whose square underflows ended in
    # ZeroDivisionError, and an infinite wave window in ValueError.  A NaN
    # time under case IV ended in Ei's ValueError, and v_max = 1e308, whose
    # step underflows to zero, in run's ZeroDivisionError.  A NaN or
    # infinite sample time exited 3 with "decay time must not be NaN" and an
    # array of panel nodes; it is refused by key name.  A grid from
    # -1e308 to 1e308 has an infinite dx: simulate exited 0 with x cells of
    # nan and inf and a summary of "mass_drift": NaN, "dt": Infinity.  A
    # negative seed of a noise state ended in numpy's ValueError, and
    # simulate with [run] command = exact, a key nothing read, exited 0.  A
    # Gaussian of zero, NaN or underflowing width, or a non-finite u0 or
    # amplitude, exited 3 at t = 0, and a NaN v0 in a run that takes no step
    # wrote a NaN trajectory and exited 0.  A non-finite number is refused
    # by key name as the config is read: an infinite V0 or a NaN U0 exited
    # 3 (the finite 1e308 still overflows the samples, a numerical
    # failure), an infinite h wrote a two-row table and exited 0, an
    # infinite t0 exited 3 with an array of times, a NaN self-similar C1
    # blamed a near-singular band and a NaN traveling alpha the march.  A
    # [sweep] with no values key would run no member and exit 0.  A time
    # outside the decay law's domain exited 3 as a numerical failure: t0 =
    # -1 under power law (case I named a Gauss-Legendre node, t = -0.949),
    # and a sample time, a verify stencil time, a t0 or a reduce end past a
    # decay table.  lie and a reduction that reads no [grid] exited 0 with
    # grid.n = 2 or 1e12.  A config error writes no file
    sections = {s: dict(body) for s, body in FINDING_CONFIGS[command].items()}
    sections.setdefault(section, {})[key] = value
    got, files = _main_on(command.split()[0], sections)
    assert got == code
    assert code != 2 or files == [], files


# the exit-2 findings that case2_travelling_tanh's own argument checks refuse
# only as its closure solve starts; ROADMAP item 18, which refuses every case
# II config, moves them into the check phase
RUN_ONLY = [("exact case2_travelling_tanh", "exact", key, value)
            for key, values in (("n", ("0", "2", "1000000000000")), ("alpha", ("0", "1e-200")))
            for value in values]


@pytest.mark.parametrize("command, section, key, value",
                         [row[:4] for row in FINDINGS if row[4] == 2])
def test_every_exit_2_finding_is_refused_by_the_check_phase(tmp_path, command, section, key,
                                                            value):
    # the config reader or the command called without an outdir makes the
    # refusal, so a sweep member with the value writes nothing; numpy's
    # warnings are silenced as main silences them
    sections = {s: dict(body) for s, body in FINDING_CONFIGS[command].items()}
    sections.setdefault(section, {})[key] = value
    name = command.split()[0]
    with np.errstate(all="ignore"):
        try:
            cfg = parse_config(_ini(sections), command=name)
            cli._COMMANDS[name](cfg)
        except (ParseError, ValidationError):
            assert (command, section, key, value) not in RUN_ONLY
            return
        assert (command, section, key, value) in RUN_ONLY
        with pytest.raises(ValidationError):
            cli._COMMANDS[name](cfg, str(tmp_path))
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("how", ["config", "override"])
@pytest.mark.parametrize("target", ["decay.times", "decay.values", "exact.t_samples",
                                    "verify.t_samples", "sweep.values"])
@pytest.mark.parametrize("text", [",", ""])
def test_a_list_with_no_value_is_refused_by_key(tmp_path, capsys, how, target, text):
    # a list key holds at least one value, for every command: simulate
    # reads none of these keys under constant decay
    cfg_path = tmp_path / "cfg.ini"
    out = tmp_path / "o"
    argv = ["simulate", "--config", str(cfg_path), "--out", str(out)]
    if how == "config":
        section, key = target.split(".")
        cfg_path.write_text(MINIMAL + f"[{section}]\n{key} = {text}\n")
    else:
        cfg_path.write_text(MINIMAL)
        argv += ["--override", f"{target}={text}"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and target in err
    assert not out.exists()


def test_run_command_is_an_unknown_key(tmp_path):
    # main runs its positional command; a [run] command key, in the config
    # or as an override, is refused, not echoed beside the command that ran
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(_ini(FUZZ_BASE))
    argv = ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]
    assert main(argv + ["--override", "run.command=exact"]) == 2
    assert not (tmp_path / "o").exists()
    with pytest.raises(ValidationError, match="unknown key 'command' in section \\[run\\]"):
        parse_config(_ini(FUZZ_BASE) + "[run]\ncommand = exact\n")
    assert main(argv) == 0
    meta, _ = import_csv(str(tmp_path / "o" / "trajectory.csv"))
    assert meta["command"] == "simulate" and meta["config"]["run"] == {"seed": 0}


def test_travelling_wave_of_zero_width_exits_2():
    # window_lo = window_hi = y0 = 0 ended in ValueError (NaN node index)
    sections = {s: dict(body) for s, body in FINDING_CONFIGS["exact case2_travelling_tanh"].items()}
    sections["exact"].update(window_lo="0", window_hi="0")
    assert _main_on("exact", sections)[0] == 2


def _run_capped(argv, address_space):
    """Run ``flks argv`` in a fresh interpreter whose address space is capped
    at address_space bytes (RLIMIT_AS, set in the child only); skipped where
    the resource module is missing.  One BLAS thread keeps the cap from
    depending on the machine's core count."""
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "flks.cli", *argv], capture_output=True,
                          text=True, env=env, preexec_fn=cap, timeout=120)


@pytest.mark.parametrize("finding", ["reduce self_similar", "exact case2_travelling_tanh"])
def test_sizes_beyond_memory_exit_2(finding, tmp_path):
    # 10^7 intervals are inside MAX_STEPS, but the self-similar band rows
    # (687 MiB) or the wave's coarse-to-fine levels outgrow a 600 MiB
    # address space; numpy's MemoryError ended in a traceback and exit 1
    sections = {s: dict(body) for s, body in FINDING_CONFIGS[finding].items()}
    sections[finding.split()[0]]["n"] = "10000000"
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(_ini(sections))
    proc = _run_capped([finding.split()[0], "--config", str(cfg_path),
                        "--out", str(tmp_path / "o")], 600 * 2**20)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        "config error: the configured sizes need more memory than is available"]


def test_numerical_failure_prints_one_stderr_line(tmp_path):
    # no numpy RuntimeWarning text (file:line and the source line) may come
    # before the diagnostic; pytest captures warnings, so only a fresh
    # interpreter shows what a user sees
    sections = {s: dict(body) for s, body in FUZZ_CONFIGS["verify"].items()}
    sections.setdefault("exact", {})["C"] = "1e308"
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(_ini(sections))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "flks.cli", "verify", "--config", str(cfg_path),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure:"), proc.stderr


@pytest.mark.parametrize("command", sorted(FUZZ_CONFIGS))
def test_fuzz_base_config_runs(command):
    # the unmutated configs succeed, so a failure comes from a mutation
    assert _main_on(command, FUZZ_CONFIGS[command])[0] == 0


# --- cold start: no command loads scipy

_COLD_START = """
import json, os, sys
import flks
from flks import cli
config, out, self_similar = sys.argv[1:4]
runs = [[command] for command in ("simulate", "verify", "lie", "exact")] + [
    ["reduce", "--override", "reduce.kind=" + kind] for kind in ("travelling_wave", "homogeneous")]
# the case II wave sampled off its profile grid
runs += [["verify", "--override", "verify.family=case2_travelling_tanh"]]
# a Gaussian [initial] makes the steady state take Newton steps
runs += [["reduce", "--override", "reduce.kind=steady_state", "--override", "initial.kind=gaussian"]]
# case IV under exponential decay: lambda > 0 puts Ei's argument above 0, lambda < 0 below
runs += [[command, "--override", "decay.kind=exponential", "--override", "decay.lambda=" + lam,
          "--override", command + ".family=case4_homogeneous"]
         for command in ("exact", "verify") for lam in ("0.2", "-0.2")]
# the cell-free front's kernel factor under the power law and a table
runs += [["exact", "--override", "exact.family=case4_cellfree_front"] + decay
         for decay in (["--override", "decay.kind=power_law", "--override", "decay.mu=0.5"],
                       ["--override", "decay.kind=tabulated", "--override", "decay.times=0,3",
                        "--override", "decay.values=0.5,0.7"])]
codes = [cli.main(argv + ["--config", config, "--out", os.path.join(out, str(i))])
         for i, argv in enumerate(runs)]
codes.append(cli.main(["reduce", "--config", self_similar, "--out", os.path.join(out, "ss")]))
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def test_import_and_numpy_only_commands_load_no_scipy(tmp_path):
    # no command loads scipy: simulate, case I verify, lie, the case II
    # traveling wave's exact and verify, every reduce kind (self_similar on
    # a config of its own), case IV's exact and verify and the cell-free
    # front's exact
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MINIMAL.replace("n = 32", "n = 16")
                        + "[verify]\nfamily = case1_homogeneous\n"
                        + "[exact]\nfamily = case2_travelling_tanh\nn = 1024\n"
                        + "[reduce]\nkind = travelling_wave\n")
    ss_path = tmp_path / "self_similar.ini"
    ss_path.write_text(MINIMAL.replace("kind = tanh\nv_max = 1.1\ns0 = 1.4", "kind = tanh_log\nv_max = 1.1\na = 0.51")
                       .replace("kind = constant\nkappa0 = 0.5", "kind = power_law\nmu = 0.5")
                       + "[reduce]\nkind = self_similar\nn = 400\nxi_max = 10.0\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _COLD_START, str(cfg_path), str(tmp_path / "o"),
                           str(ss_path)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"codes": [0] * 15, "scipy": []}


def test_every_exported_name_resolves():
    import flks

    assert [name for name in flks.__all__ if not hasattr(flks, name)] == []
