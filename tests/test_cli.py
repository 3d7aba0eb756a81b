import json
import math
import os
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest

from flks.cli import (
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
        pytest.param("verify", CONSTANT, "[verify]\nfamily = case2_travelling_tanh\n", [], 2,
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
    ],
)
def test_config_exit_codes(tmp_path, capsys, command, decay, extra, overrides, code):
    # a config error exits 2 with a one-line message, never a traceback; a
    # family or reduction under a decay law that does not admit it is one.
    # The cell-free front under constant decay is its family's lam = 0 member,
    # and a sweep may target a section the config leaves out.
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


@pytest.mark.parametrize(
    "decay, family",
    [
        ("constant", "case1_homogeneous"),
        ("power_law", "case3_homogeneous"),
        ("exponential", "case4_homogeneous"),
        ("exponential", "case4_cellfree_front"),
        ("constant", "case4_cellfree_front"),
    ],
)
def test_verify_every_sampled_family(tmp_path, decay, family):
    # n = 128 puts the 4th-order stencil error of the fronts below the bound
    decay = {"constant": CONSTANT, "power_law": POWER_LAW, "exponential": EXPONENTIAL}[decay]
    cfg = MINIMAL.replace(CONSTANT, decay).replace("n = 32", "n = 128")
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(cfg + f"[verify]\nfamily = {family}\n")
    out = tmp_path / "ver"
    assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 0
    rep = json.loads((out / "residual_report.json").read_text())
    assert rep["family"] == family
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


@pytest.mark.parametrize("command, last", [("verify", "residual_report.json"),
                                           ("lie", "lie_report.csv")])
def test_failed_report_write_leaves_no_partial_set(tmp_path, capsys, command, last):
    # a directory in place of the last file of the set makes its write fail
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MINIMAL)
    out = tmp_path / "o"
    (out / last).mkdir(parents=True)
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith("i/o error:")
    assert os.listdir(out) == [last]
