"""Experiment runner: config validation, outputs, manifests, exit codes."""

import contextlib
import copy
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import event, example, given, settings, strategies as st

from maphom import cli, coefficients
from maphom.cell import CellProblem, solve_corrector
from maphom.cli import KEYS, ExperimentConfig, ConfigError, main
from maphom.finescale import DirichletProblem, l2_error
from maphom.homogenize import tensor_field
from maphom.numerics import Rectangle, SolverError, UniformCellGrid
from maphom.structure import LinearScaleMap, QuadraticStretchMap, aud_verify


def run(tmp_path, *argv):
    out = tmp_path / "out"
    return main(["--out", str(out), *argv]), out


def write_config(tmp_path, **kv):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(kv))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


def test_defaults_validate():
    cfg = ExperimentConfig.load(None)
    assert cfg["cell_resolution"] == 128
    assert cfg["coefficient"] == "sine-product"
    om = cfg.omega()
    assert (om.a1, om.b1) == (0.05, 2.0)


@pytest.mark.parametrize("override,key", [
    ("cell_resolution=100", "cell_resolution"),     # not a power of two
    ("cell_resolution=8", "cell_resolution"),       # below the floor
    ("coefficient=checkerboard", "coefficient"),
    ("h_list=[4,2]", "h_list"),
    ("h_list=[]", "h_list"),
    ("h_list=[0,1]", "h_list"),
    ("omega=[1,2,3]", "omega"),
    ("omega=[2,1,0.5,1]", "omega"),
    ("scale_map=moebius", "scale_map"),
    ("x2_samples=2", "x2_samples"),
    ("x2_samples=4097", "x2_samples"),
    ("x2_samples=[5.0]", "x2_samples"),            # outside (a2, b2) of omega
    pytest.param("x2_samples=" + json.dumps([0.5] * 4097), "x2_samples",
                 id="x2_samples=list of 4097-x2_samples"),
    ("aud_subdivision=65", "aud_subdivision"),
    ("fem_tol=0", "fem_tol"),
    ("fem_tol=1.5", "fem_tol"),
    ("amplitude=1.0", "amplitude"),
    ("preview_h=0", "preview_h"),
    ("h_list=[1,1025]", "h_list"),
    ("preview_h=1025", "preview_h"),
])
def test_bad_values_are_rejected_with_the_offending_key(override, key):
    with pytest.raises(ConfigError) as info:
        ExperimentConfig.load(None, [override])
    assert info.value.key == key


def test_the_readme_table_lists_every_key_with_its_default():
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| key | default | meaning |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        key, default = (cell.strip().strip("`") for cell in line.split("|")[1:3])
        rows.append((key, json.loads(default)))
    assert rows == [(key, row.default) for key, row in KEYS.items()]
    assert [type(default) for _, default in rows] == [type(row.default)
                                                      for row in KEYS.values()]


def test_caps_are_inclusive():
    cfg = ExperimentConfig.load(None, ["x2_samples=4096", "aud_subdivision=64",
                                       "h_list=[1,1024]", "preview_h=1024"])
    assert (cfg["x2_samples"], cfg["aud_subdivision"]) == (4096, 64)
    assert (cfg["h_list"], cfg["preview_h"]) == ([1, 1024], 1024)


def test_the_audit_scan_is_capped_before_it_starts(tmp_path, capsys, monkeypatch):
    """On (1, 2) x (1, 3) at one subcell per direction the audit scans 8 h
    values, so h = 12,500,000 reaches the cap of 10^8 and one more passes it."""
    calls = []
    monkeypatch.setattr(cli, "aud_verify", lambda *args: calls.append(args) or [])
    base = ["--override", "omega=[1,2,1,3]", "--override", "aud_subdivision=1"]
    code, _ = run(tmp_path, *base, "--override", "aud_h_list=[4,12500001]", "aud")
    assert code == 2 and not calls
    assert "'aud_h_list'" in capsys.readouterr().err
    code, _ = run(tmp_path, *base, "--override", "aud_h_list=[4,12500000]", "aud")
    assert code == 0 and len(calls) == 1
    for omega in ("[1,2,1,1e200]", "[1,2,1e200,1e201]"):  # b2^2 overflows
        code, _ = run(tmp_path, "--override", f"omega={omega}", "aud")
        assert code == 2 and len(calls) == 1


@pytest.mark.parametrize("override,key", [
    ("cell_resolution=abc", "cell_resolution"),
    ("amplitude=null", "amplitude"),
    ('h_list=[1,"a"]', "h_list"),
    ('omega=[1,2,"x",3]', "omega"),
])
def test_wrongly_typed_overrides_exit_2(tmp_path, capsys, override, key):
    code, _ = run(tmp_path, "--override", override, "convergence")
    assert code == 2
    err = capsys.readouterr().err
    assert f"'{key}'" in err
    assert "Traceback" not in err


_SCALARS = st.one_of(st.none(), st.booleans(), st.text(max_size=6),
                     st.integers(-10 ** 20, 10 ** 20), st.floats())
_WRONG = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=5),
                   st.lists(st.lists(_SCALARS, max_size=2), max_size=3))


@settings(max_examples=400)
@given(key=st.sampled_from(sorted(KEYS)), value=_WRONG)
def test_any_value_passes_or_names_its_key(key, value):
    """Validation never fails with anything but a ConfigError for the key."""
    values = {k: copy.deepcopy(row.default) for k, row in KEYS.items()}
    values[key] = value
    try:
        ExperimentConfig(values).validate()
    except ConfigError as exc:
        assert exc.key == key


def test_unknown_keys_and_nested_objects_are_rejected(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentConfig.load(None, ["spin=up"])
    path = write_config(tmp_path, omega={"a1": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig.load(path)


def test_missing_or_malformed_config_file(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentConfig.load(str(tmp_path / "nope.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        ExperimentConfig.load(str(bad))


def test_overrides_beat_the_config_file(tmp_path):
    path = write_config(tmp_path, cell_resolution=64)
    cfg = ExperimentConfig.load(path, ["cell_resolution=32"])
    assert cfg["cell_resolution"] == 32


def test_config_errors_exit_2(tmp_path, capsys):
    code, _ = run(tmp_path, "--override", "cell_resolution=100", "homogenize")
    assert code == 2
    assert "cell_resolution" in capsys.readouterr().err


def test_sample_outside_the_domain_exits_2(tmp_path, capsys):
    code, _ = run(tmp_path, "--override", "x2_samples=[5.0]", "homogenize")
    assert code == 2
    assert "x2_samples" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["aud", "preview"])
def test_aud_and_preview_refuse_samples_outside_omega(tmp_path, capsys, command):
    """The samples are checked against omega as the config is loaded, so
    commands that never read them refuse them too."""
    code, out = run(tmp_path, "--override", "omega=[0.5,1,0.5,1]",
                    "--override", "x2_samples=[0.75,1.0]", command)
    assert code == 2
    assert "'x2_samples'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["override", "config file"])
def test_delta_is_an_unknown_key(tmp_path, capsys, source):
    """omega is the one domain key."""
    if source == "override":
        code, _ = run(tmp_path, "--override", "delta=0.1", "aud")
    else:
        code, _ = run(tmp_path, "--config", write_config(tmp_path, delta=0.1), "aud")
    assert code == 2
    assert "config key 'delta': unknown key" in capsys.readouterr().err


def test_each_named_coefficient_and_scale_map_is_what_the_name_builds():
    cfg = ExperimentConfig.load(None, ["laminate_base=3", "amplitude=0.5"])
    pts = np.array([[0.25, 0.25], [0.5, 0.75]])
    expected = {"sine-product": coefficients.sine_product(0.5),
                "laminate": coefficients.laminate(3.0, 0.5),
                "identity": coefficients.identity()}
    assert list(cli.COEFFICIENTS) == list(expected)
    for name, coefficient in expected.items():
        built = cli.COEFFICIENTS[name](cfg)
        assert np.array_equal(built(pts), coefficient(pts))
    assert cli.SCALE_MAPS == {"stretch": QuadraticStretchMap, "linear": LinearScaleMap}


def test_unreachable_tolerance_exits_3(tmp_path, capsys):
    code, _ = run(tmp_path, "--override", "fem_tol=1e-300",
                  "--override", "domain_resolution=16",
                  "--override", "cell_resolution=16", "convergence")
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_a_non_finite_residual_exits_3_at_once(tmp_path, capsys, monkeypatch):
    """At x2 near 1e200 the scaled stiffness overflows; the first solve
    refuses the non-finite preconditioner input instead of iterating to
    max_iter."""
    failures = []
    solve = CellProblem.solve

    def recorded(self, *args, **kwargs):
        try:
            return solve(self, *args, **kwargs)
        except SolverError as exc:
            failures.append(exc)
            raise

    monkeypatch.setattr(CellProblem, "solve", recorded)
    code, _ = run(tmp_path, "--override", "omega=[1,2,1e200,1e201]",
                    "--override", "cell_resolution=16", "--override", "x2_samples=3",
                    "homogenize")
    assert code == 3
    err = capsys.readouterr().err
    assert "preconditioner input is not finite: k2 = inf" in err
    assert "RuntimeWarning" not in err
    assert len(failures) == 1 and failures[0].iterations <= 1


@pytest.mark.parametrize("argv", [
    ["--override", "dump_x2=1e-300", "corrector-dump"],
    ["--override", "omega=[1e-300,1e-299,1e-300,1e-299]", "homogenize"],
], ids=["corrector-dump", "homogenize"])
def test_a_scaling_whose_mean_underflows_exits_3(tmp_path, capsys, argv):
    """zeta2^2 <a22> underflows to 0 at zeta2 near 1e-300; the solve names
    the preconditioner input instead of ending in a traceback."""
    code, _ = run(tmp_path, "--override", "cell_resolution=16",
                  "--override", "x2_samples=3", *argv)
    assert code == 3
    err = capsys.readouterr().err
    assert "preconditioner input underflows to 0" in err and "k2 = 0.0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,named", [
    (["--override", "omega=[0.5,1,1e308,1.7e308]", "homogenize"],
     "not finite: k2 = inf at zeta = (1.0, inf)"),
    (["--override", "dump_x2=6e153", "corrector-dump"], "not finite: diagonal["),
    (["--override", "omega=[0.5,1,0.4,6e152]", "--override", "x2_samples=[0.5,1,5e152]",
      "homogenize"], "breakdown"),
], ids=["zeta2-overflows", "stiffness-overflows", "warm-start-at-1e306"])
def test_a_scaling_that_overflows_exits_3(tmp_path, capsys, argv, named):
    """2 x2 overflows above 0.9e308, and zeta2^2 times the stiffness
    above about 1e154: the solve refuses the infinite scaling before it
    forms the system, or the infinite diagonal after, with no
    RuntimeWarning. Below that, a scaling whose warm start is projected
    with zeta2^2 = 1e306 breaks down in CG as a cold solve does."""
    code, _ = run(tmp_path, "--override", "cell_resolution=16",
                  "--override", "x2_samples=3", *argv)
    assert code == 3
    err = capsys.readouterr().err
    assert named in err
    assert "RuntimeWarning" not in err and "Traceback" not in err


def test_preview_refuses_a_domain_the_map_overflows_on(tmp_path, capsys):
    """h x2^2 overflows at x2 = 1e300; the preview names omega and writes
    no sample, where it wrote nan rows before."""
    code, out = run(tmp_path, "--override", "omega=[0.5,1,0.5,1e300]",
                    "--override", "preview_resolution=16", "preview")
    assert code == 2
    err = capsys.readouterr().err
    assert "'omega'" in err and "overflows" in err
    assert "RuntimeWarning" not in err
    assert not (out / "preview.csv").exists()


def test_an_overflowing_dirichlet_stiffness_exits_3(tmp_path, capsys):
    """The laminate's 1e300 times the element tables' hy / hx of about
    2e300 overflows as the Dirichlet stiffness is assembled; the
    preconditioner refuses the infinite diagonal, with no RuntimeWarning."""
    code, _ = run(tmp_path, "--override", "coefficient=laminate",
                  "--override", "laminate_base=1e300", "--override", "omega=[0.5,1,0.5,1e300]",
                  "--override", "classical=true", "--override", "domain_resolution=16",
                  "--override", "cell_resolution=16", "--override", "x2_samples=3",
                  "convergence")
    assert code == 3
    err = capsys.readouterr().err
    assert "preconditioner input is not finite: diagonal" in err
    assert "RuntimeWarning" not in err


@pytest.mark.parametrize("omega", ["[1e-300,1e-299,1e-300,1e-299]",
                                   "[1e299,1e300,1e299,1e300]", "[1e-10,2e-10,0.5,1e300]"])
def test_convergence_refuses_mesh_elements_outside_the_float_range(tmp_path, capsys,
                                                                   omega):
    """Mesh elements whose area or aspect ratio underflows or overflows
    are refused before any solve, naming omega, with no RuntimeWarning."""
    code, _ = run(tmp_path, "--override", f"omega={omega}", "--override", "classical=true",
                  "--override", "domain_resolution=16", "--override", "cell_resolution=16",
                  "convergence")
    assert code == 2
    err = capsys.readouterr().err
    assert "'omega'" in err and "RuntimeWarning" not in err


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def test_homogenize_writes_tensor_and_manifest(tmp_path, capsys):
    code, out = run(
        tmp_path,
        "--override", "coefficient=laminate",
        "--override", "classical=true",
        "--override", "x2_samples=[0.4,0.5,0.6]",
        "homogenize")
    assert code == 0
    header, rows = read_csv(out / "tensor.csv")
    assert header == ["x2", "b11", "b12", "b21", "b22"]
    assert len(rows) == 3
    # one shared solve: identical matrix text on every row
    assert rows[0][1:] == rows[1][1:] == rows[2][1:]
    # config laminate is 2 + 0.9 sin(2 pi y1): harmonic mean across the
    # layers, arithmetic mean along them
    assert abs(float(rows[0][1]) - math.sqrt(4.0 - 0.81)) <= 1e-3
    assert abs(float(rows[0][4]) - 2.0) <= 1e-3
    assert "isotropy" in capsys.readouterr().out

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "homogenize"
    entry = manifest["outputs"][0]
    digest = hashlib.sha256((out / entry["name"]).read_bytes()).hexdigest()
    assert entry["sha256"] == digest
    assert entry["bytes"] > 0
    assert "tensor_field" in manifest["runtimes_seconds"]
    assert manifest["versions"]["maphom"]
    assert manifest["versions"]["scipy"] == scipy.__version__


def test_manifest_records_the_cell_solver(tmp_path):
    """homogenize and convergence keep the form B is read off, the truth
    scalings, the bound target and, per scaling, the CG iterations and the
    error bound. The ends zeta2 = 0.6 and 1.4 are solved first; a
    scaling read off the basis has 0 iterations and its start residuals
    are its residuals, and every bound, a truth scaling's too, meets the
    target."""
    code, out = run(tmp_path,
                    "--override", "cell_resolution=16",
                    "--override", "x2_samples=[0.3,0.35,0.4,0.45,0.5,0.55,0.6,0.65,0.7]",
                    "homogenize")
    assert code == 0
    solver = json.loads((out / "manifest.json").read_text())["solver"]
    assert solver["preconditioner"] == "spectral"
    assert solver["warm_start"] == "reduced_basis"
    assert solver["effective_matrix"] == "stationary"
    assert solver["bound_target"] == pytest.approx(1e-13)
    truth = solver["truth_scalings"]
    assert truth[:2] == [0.6, 1.4] and len(set(truth)) == len(truth) < 9
    rows = solver["cg_iterations"]
    assert [row["zeta2"] for row in rows] == pytest.approx(np.arange(0.6, 1.45, 0.1))
    assert all(0.0 <= row["bound"] <= solver["bound_target"] for row in rows)
    for row in rows:
        assert len(row["residuals"]) == len(row["start_residuals"]) == 2
        if row["zeta2"] in truth:
            assert min(row["iterations"]) > 0
        else:
            assert row["iterations"] == [0, 0]
            assert row["residuals"] == row["start_residuals"]
    # the first scaling starts from zero, the others from the projection
    assert rows[0]["start_residuals"] == pytest.approx([1.0, 1.0])
    assert all(max(row["start_residuals"]) < 0.1 for row in rows[1:])

    code, out = run(tmp_path,
                    "--override", "cell_resolution=16",
                    "--override", "domain_resolution=32",
                    "--override", "x2_samples=4",
                    "--override", "h_list=[1]",
                    "convergence")
    assert code == 0
    solver = json.loads((out / "manifest.json").read_text())["solver"]
    assert solver["preconditioner"] == "spectral"
    assert solver["effective_matrix"] == "stationary"
    assert len(solver["cg_iterations"]) == 4
    dirichlet = solver["dirichlet"]
    assert [d["label"] for d in dirichlet] == ["homogenized", "oscillatory h=1"]
    # a 32^2 mesh under-resolves the map at h = 1, as the CSV flags
    assert [d["warn_underresolved"] for d in dirichlet] == [False, True]
    _, rows = read_csv(out / "convergence.csv")
    assert [r[3] for r in rows] == ["1"]
    for d in dirichlet:
        assert d["iterations"] > 0
        assert d["residual"] <= 1e-8
        assert d["energy_gap"] <= 1e-8


def test_manifest_records_the_dirichlet_preconditioner(tmp_path):
    """On a 64^2 mesh over (0.05, 2)^2 the stretch puts about 4 h periods
    across the domain: h = 1, whose spread P ln c = 11.8 lies above
    2 sqrt(19), takes the half scale, and h = 8 drops it."""
    code, out = run(tmp_path,
                    "--override", "cell_resolution=16",
                    "--override", "domain_resolution=64",
                    "--override", "x2_samples=3",
                    "--override", "h_list=[1,8]",
                    "convergence")
    assert code == 0
    dirichlet = json.loads((out / "manifest.json").read_text())["solver"]["dirichlet"]
    assert [(d["label"], d["preconditioner"]) for d in dirichlet] == [
        ("homogenized", "scaled"), ("oscillatory h=1", "half"),
        ("oscillatory h=8", "unscaled")]
    assert [d["periods"] for d in dirichlet] == pytest.approx([0.0, 3.9975, 31.98])
    assert all(1.0 < d["contrast"] <= 19.0 for d in dirichlet)


def test_aud_reports_per_scale_index(tmp_path, capsys):
    code, out = run(tmp_path, "--override", "aud_h_list=[4,16]", "aud")
    assert code == 0
    header, rows = read_csv(out / "aud.csv")
    assert header == ["h", "n", "j2_min", "j2_max", "max_deviation"]
    assert [r[0] for r in rows] == ["4", "16"]
    assert float(rows[1][4]) < float(rows[0][4])
    printed = capsys.readouterr().out
    assert "h=4" in printed and "h=16" in printed


def test_aud_flags_domains_without_interior_cells(tmp_path, capsys):
    code, out = run(tmp_path,
                    "--override", "omega=[0.5,0.9,0.5,0.9]",
                    "--override", "aud_h_list=[1]", "aud")
    assert code == 0
    _, rows = read_csv(out / "aud.csv")
    assert rows[0] == ["1", "4", "", "", ""]
    assert "no interior cells" in capsys.readouterr().out


def test_convergence_writes_rows_for_each_scale(tmp_path):
    """The rows flushed one by one read back, under the header, as the
    errors and energies of direct solves of one problem."""
    overrides = ["coefficient=identity", "cell_resolution=16", "domain_resolution=32",
                 "x2_samples=4", "h_list=[1,2]"]
    code, out = run(tmp_path, *(arg for o in overrides for arg in ("--override", o)),
                    "convergence")
    assert code == 0
    header, rows = read_csv(out / "convergence.csv")
    assert header == ["h", "l2_error", "energy", "warn_underresolved"]
    assert [r[0] for r in rows] == ["1", "2"]
    for row in rows:
        assert float(row[1]) <= 1e-12  # no oscillation, no gap
        assert float(row[2]) > 0
    cfg = ExperimentConfig.load(None, overrides)
    problem = DirichletProblem(UniformCellGrid(32, periodic=False, rectangle=cfg.omega()),
                               lambda pts: np.ones(pts.shape[0]))
    reference = problem.homogenized(
        tensor_field(cfg.coefficient(), cfg.x2_sample_values(), cell_resolution=16),
        cfg["fem_tol"])
    solves = [problem.oscillatory(cfg.coefficient(), QuadraticStretchMap(h), cfg["fem_tol"])
              for h in (1, 2)]
    assert [(float(e), float(w), bool(int(flag))) for _, e, w, flag in rows] == [
        (l2_error(u, reference), u.energy, u.warn_underresolved) for u in solves]


def test_convergence_csv_layout(tmp_path, monkeypatch):
    class Solve:
        def __init__(self, h, energy, warn_underresolved):
            self.h, self.energy, self.warn_underresolved = h, energy, warn_underresolved

        def diagnostics(self):
            return {"h": self.h}

    solves = {1: Solve(1, 1.5, False), 2: Solve(2, 1.25, True)}
    monkeypatch.setattr(DirichletProblem, "homogenized",
                        lambda self, field, tol: Solve(0, 0.0, False))
    monkeypatch.setattr(DirichletProblem, "oscillatory",
                        lambda self, coefficient, scale_map, tol: solves[scale_map.h])
    monkeypatch.setattr(cli, "l2_error", lambda u, v: 0.5 ** (u.h + 1))
    code, out = run(tmp_path, "--override", "cell_resolution=16",
                    "--override", "x2_samples=3", "--override", "domain_resolution=32",
                    "--override", "h_list=[1,2]", "convergence")
    assert code == 0
    assert (out / "convergence.csv").read_text() == (
        "h,l2_error,energy,warn_underresolved\n1,0.25,1.5,0\n2,0.125,1.25,1\n")


def test_an_aborted_sweep_leaves_the_finished_rows(tmp_path, capsys, monkeypatch):
    """A solver failure at the second h exits 3 and leaves the header and
    the first row on disk, and no manifest."""
    oscillatory = DirichletProblem.oscillatory

    def fail_after_the_first(self, coefficient, scale_map, tol=1e-8):
        if scale_map.h > 1:
            raise SolverError("no convergence", 10, 1.0)
        return oscillatory(self, coefficient, scale_map, tol)

    monkeypatch.setattr(DirichletProblem, "oscillatory", fail_after_the_first)
    code, out = run(tmp_path,
                    "--override", "cell_resolution=16",
                    "--override", "domain_resolution=32",
                    "--override", "x2_samples=4",
                    "--override", "h_list=[1,2]",
                    "convergence")
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
    header, rows = read_csv(out / "convergence.csv")
    assert header == ["h", "l2_error", "energy", "warn_underresolved"]
    assert [r[0] for r in rows] == ["1"]
    assert not (out / "manifest.json").exists()


def test_preview_respects_the_composed_periodicity(tmp_path):
    """Shifting x1 by 1/h lands on the same sampled value."""
    code, out = run(
        tmp_path,
        "--override", "omega=[0.5,1.5,0.5,1.5]",
        "--override", "preview_resolution=64",
        "--override", "preview_h=4",
        "preview")
    assert code == 0
    header, rows = read_csv(out / "preview.csv")
    assert header == ["x1", "x2", "value"]
    n = 64
    assert len(rows) == (n + 1) ** 2
    vals = np.array([float(r[2]) for r in rows]).reshape(n + 1, n + 1)
    shift = n // 4  # columns per map period
    assert np.abs(vals[shift:, :] - vals[:-shift, :]).max() <= 1e-12
    assert vals.min() >= 0.1 - 1e-12
    assert vals.max() <= 1.9 + 1e-12


def test_preview_of_the_identity_is_a_flat_grid(tmp_path):
    code, out = run(tmp_path,
                    "--override", "preview_resolution=16",
                    "--override", "coefficient=identity",
                    "preview")
    assert code == 0
    _, rows = read_csv(out / "preview.csv")
    assert {float(r[2]) for r in rows} == {1.0}


def test_corrector_dump_round_trips(tmp_path):
    code, out = run(tmp_path,
                    "--override", "cell_resolution=16",
                    "--override", "dump_x2=0.5",
                    "corrector-dump")
    assert code == 0
    header, rows = read_csv(out / "corrector.csv")
    assert header == ["y1", "y2", "z1", "z2"]
    assert len(rows) == 256
    z1 = np.array([float(r[2]) for r in rows])
    assert abs(z1.mean()) <= 1e-12
    assert np.abs(z1).max() > 0


def test_corrector_csv_layout(tmp_path):
    """Rows are the grid's nodes in order, and every value reads back
    exactly."""
    code, out = run(tmp_path,
                    "--override", "cell_resolution=16",
                    "--override", "dump_x2=0.5",
                    "corrector-dump")
    assert code == 0
    _, rows = read_csv(out / "corrector.csv")
    table = np.array(rows, dtype=float)
    cfg = ExperimentConfig.load(None)
    field = solve_corrector(cfg.coefficient(), (1.0, 1.0), 16)
    assert np.array_equal(table[:, :2], UniformCellGrid(16).node_coords())
    assert np.array_equal(table[:, 2], field.z[0])
    assert np.array_equal(table[:, 3], field.z[1])


def test_tensor_csv_is_deterministic():
    field = tensor_field(ExperimentConfig.load(None).coefficient(), [0.25, 0.5, 0.75],
                         cell_resolution=32)
    first, second = io.StringIO(), io.StringIO()
    cli.write_tensor_csv(field, first)
    cli.write_tensor_csv(field, second)
    assert first.getvalue() == second.getvalue()
    lines = first.getvalue().strip().split("\n")
    assert len(lines) == 3
    row = lines[1].split(",")
    assert float(row[0]) == 0.5
    assert abs(float(row[1]) - float(row[4])) <= 1e-3


def test_aud_csv_round_trip_including_empty_rows(tmp_path):
    """An empty report keeps its h and n and leaves the other fields
    blank; the maximum deviation reads back exactly."""
    omega = [0.5, 0.9, 0.5, 0.9]
    args = ["--override", f"omega={json.dumps(omega)}", "--override", "aud_h_list=[1,4]",
            "aud"]
    code, out = run(tmp_path, *args)
    assert code == 0
    header, empty, full, end = (out / "aud.csv").read_text().split("\n")
    assert (header, empty, end) == ("h,n,j2_min,j2_max,max_deviation", "1,4,,,", "")
    h, n, j2_min, j2_max, deviation = full.split(",")
    report = aud_verify([4], 4, Rectangle(*omega))[0]
    assert (h, n, int(j2_min), int(j2_max), float(deviation)) == (
        "4", "4", report.j2_min, report.j2_max, report.max_deviation)
    assert main(["--out", str(tmp_path / "again"), *args]) == 0
    assert (tmp_path / "again" / "aud.csv").read_bytes() == (out / "aud.csv").read_bytes()


def test_data_files_are_byte_stable_across_runs(tmp_path):
    args = ["--override", "cell_resolution=32",
            "--override", "x2_samples=[0.25,0.5,0.75]", "homogenize"]
    code_a, out_a = main(["--out", str(tmp_path / "a"), *args]), tmp_path / "a"
    code_b, out_b = main(["--out", str(tmp_path / "b"), *args]), tmp_path / "b"
    assert code_a == code_b == 0
    assert (out_a / "tensor.csv").read_bytes() == (out_b / "tensor.csv").read_bytes()


def run_with_blas_threads(out, threads, *argv):
    """Run the CLI in a child process with ``threads`` BLAS threads. Returns
    its CSV files' bytes and its manifest's solver record without the
    wall times."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]),
               **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                "MKL_NUM_THREADS"), str(threads)))
    proc = subprocess.run([sys.executable, "-m", "maphom.cli", "--out", str(out), *argv],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    solver = json.loads((out / "manifest.json").read_text())["solver"]
    for entry in solver.get("dirichlet", []):
        del entry["assemble_s"], entry["solve_s"]
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}, solver


@pytest.mark.parametrize("argv", [
    ["--override", "x2_samples=4", "homogenize"],
    ["--override", "cell_resolution=16", "--override", "x2_samples=12", "homogenize"],
    ["--override", "cell_resolution=16", "--override", "domain_resolution=128",
     "--override", "h_list=[1,2]", "--override", "x2_samples=8", "convergence"],
], ids=["homogenize", "homogenize-ring", "convergence"])
def test_results_do_not_depend_on_the_blas_thread_count(tmp_path, argv):
    """The CSV bytes, the CG iteration counts and residuals and the
    Dirichlet records are the same with one BLAS thread and with two, on
    the default 128^2 cells and on a 16^2 sweep whose twelve scalings
    fill the eight-vector ring of the Galerkin start and evict from it,
    so its small dense solve runs under both."""
    one = run_with_blas_threads(tmp_path / "one", 1, *argv)
    two = run_with_blas_threads(tmp_path / "two", 2, *argv)
    assert one == two


# ---------------------------------------------------------------------------
# the exit-code contract, end to end
# ---------------------------------------------------------------------------


_SMALL_OMEGA = st.builds(lambda a1, w1, a2, w2: [a1, a1 + w1, a2, a2 + w2],
                         st.sampled_from([0.05, 0.5, 1.0]), st.sampled_from([0.25, 1.0]),
                         st.sampled_from([0.05, 0.5, 1.0]), st.sampled_from([0.25, 1.0]))
_SCALES = st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True).map(sorted)
# accepted values, extreme ones included; at most one key gets a rejected one
_VALID = {
    "coefficient": st.sampled_from(["sine-product", "laminate", "identity"]),
    "amplitude": st.sampled_from([0.0, 0.5, 0.99]),
    "laminate_base": st.sampled_from([1.5, 1e300]),
    "omega": st.one_of(_SMALL_OMEGA,
                       st.sampled_from([[0.5, 1.0, 0.5, 1e300],
                                        [1e-300, 1e-299, 1e-300, 1e-299]])),
    "scale_map": st.sampled_from(["stretch", "linear"]),
    "classical": st.booleans(),
    "x2_samples": st.one_of(st.integers(3, 4),
                            st.lists(st.floats(0.5, 1.2), min_size=1, max_size=3)),
    "h_list": _SCALES,
    "aud_h_list": _SCALES.map(lambda hs: [4 * h for h in hs]),
    "aud_subdivision": st.integers(1, 4),
    "fem_tol": st.sampled_from([1e-8, 1e-300]),
    "dump_x2": st.sampled_from([0.5, 0.01, 50.0, 1e-300]),
    "preview_h": st.integers(1, 5),
}
_REJECTED = {
    "coefficient": st.just("checkerboard"),
    "amplitude": st.sampled_from([1.0, -0.1, "x"]),
    "omega": st.lists(st.floats(-1.0, 3.0), min_size=3, max_size=5),
    "scale_map": st.just("moebius"),
    "cell_resolution": st.sampled_from([8, 24, 2048]),
    "domain_resolution": st.sampled_from([8, 24]),
    "preview_resolution": st.just(2048),
    "x2_samples": st.one_of(st.sampled_from([2, 4097]),
                            st.lists(st.floats(-0.5, 3.0), max_size=2)),
    "h_list": st.sampled_from([[], [0], [2, 1]]),
    # past the audit's scan cap on every domain drawn here (aud only)
    "aud_h_list": st.sampled_from([[], [4, 4], [10 ** 10]]),
    "aud_subdivision": st.sampled_from([0, 65]),
    "fem_tol": st.sampled_from([0.0, 1.0]),
    "dump_x2": st.sampled_from([0.0, -1.0]),
    "preview_h": st.just(0),
}
_SMALL_SIZES = {"cell_resolution": 16, "domain_resolution": 16,
                "preview_resolution": 16, "x2_samples": 3, "h_list": [1, 2],
                "aud_h_list": [1, 4]}


# a Dirichlet stiffness that overflows: the element tables scale as
# hy / hx, about 2e300, and the coefficient is 1e300
_OVERFLOWING_STIFFNESS = {"coefficient": "laminate", "laminate_base": 1e300,
                          "omega": [0.5, 1.0, 0.5, 1e300], "classical": True}


@settings(max_examples=400)
@example(command="convergence", overrides=_OVERFLOWING_STIFFNESS, rejected=None,
         data=None, preview_h=None)
@example(command="homogenize", overrides={"omega": [0.5, 1.0, 1e308, 1.7e308]},
         rejected=None, data=None, preview_h=None)
@given(command=st.sampled_from(["homogenize", "aud", "convergence", "preview",
                                "corrector-dump"]),
       overrides=st.fixed_dictionaries({}, optional=_VALID),
       rejected=st.one_of(st.none(), st.sampled_from(sorted(_REJECTED))),
       data=st.data(),
       preview_h=st.one_of(st.none(), st.integers(-1, 4)))
def test_every_subcommand_exits_0_2_or_3(tmp_path_factory, command, overrides,
                                         rejected, data, preview_h):
    """Mixes of accepted values and at most one rejected one, at 16^2
    sizes, end in a documented exit code and never in an exception."""
    values = {**_SMALL_SIZES, **overrides}
    if rejected is not None:
        values[rejected] = data.draw(_REJECTED[rejected], label=rejected)
    argv = ["--out", str(tmp_path_factory.mktemp("run"))]
    for key, value in values.items():
        argv += ["--override", f"{key}={json.dumps(value)}"]
    if command == "preview" and preview_h is not None:
        argv += ["--override", f"preview_h={preview_h}"]
    argv.append(command)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"exit {code}")
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
