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
    _SCHEMA,
    apply_overrides,
    build_model,
    emit_plot_script,
    export_csv,
    import_csv,
    main,
    parse_config,
)
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
    cfg = parse_config(MINIMAL, command="simulate")
    text = cfg.canonical_text()
    cfg2 = parse_config(text, command="simulate")
    assert cfg2.sections == cfg.sections
    assert cfg2.canonical_text() == text


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
    cfg_path.write_text(MINIMAL)
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
    # the fig-1 constants on [-4, 4] with n = 256: the diffusive bound is
    # ~815x below the advective one and sets dt
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MINIMAL.replace("x_lo = -2.0", "x_lo = -4.0")
                        .replace("x_hi = 2.0", "x_hi = 4.0").replace("n = 32", "n = 256")
                        .replace("t_end = 0.05", "t_end = 0.001"))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["summary"]
    dx = 8.0 / 256
    assert summary["dt_bound"] == "diffusive"
    assert summary["dt"] == pytest.approx(0.4 * dx * dx / 20.0, rel=1e-12)
    assert (dx * 1.4 / 1.1) / (dx * dx / 20.0) == pytest.approx(815, rel=1e-3)
    # the record goes to the CSV header, never to the body
    meta, cols = import_csv(str(tmp_path / "o" / "trajectory.csv"))
    assert meta["solver"]["dt"] == summary["dt"]
    assert meta["solver"]["dt_bound"] == "diffusive"
    assert set(cols) == {"t", "x", "u", "v"}


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
LATE_TABLE = "kind = tabulated\ntimes = 0.5,2.0\nvalues = 0.5,0.7"


def _sweep(target, values, command="simulate"):
    section, key = target.split(".")
    return f"[sweep]\nsection = {section}\nkey = {key}\nvalues = {values}\ncommand = {command}\n"


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
        pytest.param("verify", POWER_LAW, "[verify]\nfamily = case4_cellfree_front\n", [], 2,
                     id="verify-cellfree-power-law"),
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
    ],
)
def test_config_exit_codes(tmp_path, capsys, command, decay, extra, overrides, code):
    # a config error exits 2 with a one-line message, never a traceback; a
    # family or reduction under a decay law that does not admit it is one.
    # The cell-free front under constant decay is its family's lam = 0 member,
    # a sweep may target a section the config leaves out, and a run starts
    # where its decay law does (t = 1 under power law, the first knot of a
    # table).
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MINIMAL.replace(CONSTANT, decay) + extra)
    argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]
    for item in overrides:
        argv += ["--override", item]
    assert main(argv) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("config error:")
    else:
        assert err == ""


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
# the two measured mismatches with the configured system: the case II wave
# solves the PDE with F -> -F, and the damped cell-free front solves
# tau v_t = v_xx - kappa0 v, not the exponential-decay equation
MISMATCH = {("constant", "case2_travelling_tanh"): 0.3,
            ("exponential", "case4_cellfree_front"): 0.5}


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
    # kappa0 = 0 puts case IV's Ei argument at its singularity (DomainError)
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MINIMAL.replace(CONSTANT, "kind = exponential\nkappa0 = 0.0\nlambda = 0.2")
                        + "[exact]\nfamily = case4_homogeneous\n")
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


def _csv_results():
    # a trajectory, a profile result and a 2-D table longer than one block
    # that does not end on a block boundary, each holding the special values
    from flks.reduced_systems import HomogeneousResult

    p = ModelParams(D=0.8, tau=0.1, limiter=TanhLimiter(1.1, 1.4), decay=ConstantDecay(0.5))
    rng = np.random.default_rng(3)
    traj = run(FieldPair(1.0 + 0.1 * rng.random(17), rng.random(17)), p,
               SolverConfig(grid=Grid1D(0.0, 1.0, 16), t_end=0.02, output_stride=3))
    traj.us[1, : SPECIAL.size] = SPECIAL
    ts = np.linspace(0.0, 1.0, 40)
    profile = HomogeneousResult(ts, np.resize(SPECIAL, 40), rng.standard_normal(40))
    rows = 2 * _BLOCK_ROWS + 37
    table = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-300, 300, (rows, 3))
    table[-SPECIAL.size :, 1] = SPECIAL
    table[: SPECIAL.size, 2] = SPECIAL[::-1]
    return {
        "trajectory": (traj, np.column_stack([np.repeat(traj.times, 17), np.tile(traj.grid.nodes(),
                                              traj.times.size), traj.us.ravel(), traj.vs.ravel()])),
        "profile": (profile, np.column_stack([ts, profile.U, profile.V])),
        "table": (table, table),
    }


@pytest.mark.parametrize("kind", ["trajectory", "profile", "table"])
def test_csv_body_is_byte_identical_to_savetxt(tmp_path, kind):
    result, table = _csv_results()[kind]
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
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "cfg.ini")
        with open(cfg_path, "w") as f:
            f.write(_ini(sections))
        return main([command, "--config", cfg_path, "--out", os.path.join(tmp, "o")])


@settings(max_examples=400, deadline=None)
@given(case=_mutated_config())
def test_fuzzed_config_exits_with_a_contract_code(case):
    assert _main_on(*case) in (0, 2, 3, 4)


@pytest.mark.parametrize(
    "command, section, key, value, code",
    [("reduce", "reduce", "t_end", "inf", 2), ("reduce", "reduce", "t_end", "nan", 2),
     ("reduce", "reduce", "h", "nan", 2), ("reduce", "reduce", "h", "0", 2),
     ("reduce", "reduce", "t_end", "-1", 2), ("reduce", "reduce", "t_end", "0", 2),
     ("verify", "verify", "t_samples", "", 2), ("verify", "verify", "ht", "0", 2),
     ("verify", "exact", "V0", "inf", 3), ("reduce", "reduce", "U0", "nan", 3),
     ("exact", "exact", "V0", "inf", 3), ("exact", "exact", "t_samples", "", 2),
     ("exact", "exact", "t_samples", "0.5,0.5", 2)],
)
def test_fuzz_findings_exit_with_a_contract_code(command, section, key, value, code):
    # an infinite or NaN span and a NaN step ended in OverflowError or
    # ValueError in the RK4 march, no sample time in ZeroDivisionError; a
    # span ending before its start marched one step backwards and exited 0;
    # a zero ht and a NaN residual passed verify with sup_norm = -1; a NaN
    # reduce state and infinite exact samples were written with exit 0; no
    # exact sample time or a repeated one wrote a CSV its plot script died on
    sections = {s: dict(body) for s, body in FUZZ_CONFIGS[command].items()}
    sections.setdefault(section, {})[key] = value
    assert _main_on(command, sections) == code


def test_numerical_failure_prints_one_stderr_line(tmp_path):
    # no numpy RuntimeWarning text (file:line and the source line) may come
    # before the diagnostic; pytest captures warnings, so only a fresh
    # interpreter shows what a user sees
    sections = {s: dict(body) for s, body in FUZZ_CONFIGS["verify"].items()}
    sections.setdefault("exact", {})["V0"] = "inf"
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
    assert _main_on(command, FUZZ_CONFIGS[command]) == 0


# --- cold start: the numpy-only commands load no scipy

_COLD_START = """
import json, os, sys
import flks
from flks import cli
config, out = sys.argv[1:3]
codes = [cli.main([command, "--config", config, "--out", os.path.join(out, command)])
         for command in ("simulate", "verify", "lie", "exact", "reduce")]
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def test_import_and_numpy_only_commands_load_no_scipy(tmp_path):
    # scipy's import is most of a cold start; simulate, case I verify, lie,
    # the case II traveling wave's exact and the traveling reduce never call it
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MINIMAL.replace("n = 32", "n = 16")
                        + "[verify]\nfamily = case1_homogeneous\n"
                        + "[exact]\nfamily = case2_travelling_tanh\nn = 1024\n"
                        + "[reduce]\nkind = travelling_wave\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _COLD_START, str(cfg_path), str(tmp_path / "o")],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"codes": [0] * 5, "scipy": []}
