"""Experiment runner: config validation, outputs, manifests, exit codes."""

import contextlib
import copy
import hashlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from maphom import cli
from maphom.cell import CellProblem
from maphom.cli import DEFAULTS, ExperimentConfig, ConfigError, main
from maphom.finescale import convergence_study, write_convergence_csv
from maphom.numerics import SolverError


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
    ("delta=0", "delta"),
    ("delta=-0.1", "delta"),
    ("coefficient=checkerboard", "coefficient"),
    ("h_list=[4,2]", "h_list"),
    ("h_list=[]", "h_list"),
    ("h_list=[0,1]", "h_list"),
    ("omega=[1,2,3]", "omega"),
    ("omega=[2,1,0.5,1]", "omega"),
    ("scale_map=moebius", "scale_map"),
    ("x2_samples=2", "x2_samples"),
    ("x2_samples=4097", "x2_samples"),
    pytest.param("x2_samples=" + json.dumps([0.5] * 4097), "x2_samples",
                 id="x2_samples=list of 4097-x2_samples"),
    ("aud_subdivision=65", "aud_subdivision"),
    ("cg_tol=0", "cg_tol"),
    ("cg_tol=1.5", "cg_tol"),
    ("amplitude=1.0", "amplitude"),
    ("preview_h=0", "preview_h"),
    ("h_list=[1,1025]", "h_list"),
    ("preview_h=1025", "preview_h"),
])
def test_bad_values_are_rejected_with_the_offending_key(override, key):
    with pytest.raises(ConfigError) as info:
        ExperimentConfig.load(None, [override])
    assert info.value.key == key


def test_caps_are_inclusive():
    cfg = ExperimentConfig.load(None, ["x2_samples=4096", "aud_subdivision=64",
                                       "h_list=[1,1024]", "preview_h=1024"])
    assert (cfg["x2_samples"], cfg["aud_subdivision"]) == (4096, 64)
    assert (cfg["h_list"], cfg["preview_h"]) == ([1, 1024], 1024)


def test_the_preview_flag_obeys_the_scale_cap(tmp_path, capsys):
    code, _ = run(tmp_path, "preview", "--h", "1025")
    assert code == 2
    assert "'preview_h'" in capsys.readouterr().err


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
@given(key=st.sampled_from(sorted(DEFAULTS)), value=_WRONG)
def test_any_value_passes_or_names_its_key(key, value):
    """Validation never fails with anything but a ConfigError for the key."""
    values = copy.deepcopy(DEFAULTS)
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


def test_unreachable_tolerance_exits_3(tmp_path, capsys):
    code, _ = run(tmp_path, "--override", "cg_tol=1e-300",
                  "--override", "cell_resolution=16", "corrector-dump")
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


def test_manifest_records_the_cell_solver(tmp_path):
    """homogenize and convergence keep the CG iterations of every scaling."""
    code, out = run(tmp_path,
                    "--override", "cell_resolution=16",
                    "--override", "x2_samples=[0.3,0.5,0.7]",
                    "homogenize")
    assert code == 0
    solver = json.loads((out / "manifest.json").read_text())["solver"]
    assert solver["preconditioner"] == "spectral"
    rows = solver["cg_iterations"]
    assert [row["zeta2"] for row in rows] == [0.6, 1.0, 1.4]
    assert all(len(row["iterations"]) == 2 and min(row["iterations"]) > 0
               for row in rows)
    assert all(len(row["residuals"]) == 2 and max(row["residuals"]) <= 1e-10
               for row in rows)

    code, out = run(tmp_path,
                    "--override", "cell_resolution=16",
                    "--override", "domain_resolution=32",
                    "--override", "x2_samples=4",
                    "--override", "h_list=[1]",
                    "convergence")
    assert code == 0
    solver = json.loads((out / "manifest.json").read_text())["solver"]
    assert solver["preconditioner"] == "spectral"
    assert len(solver["cg_iterations"]) == 4
    dirichlet = solver["dirichlet"]
    assert [d["label"] for d in dirichlet] == ["homogenized", "oscillatory h=1"]
    for d in dirichlet:
        assert d["iterations"] > 0
        assert d["residual"] <= 1e-8
        assert d["energy_gap"] <= 1e-8


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


def test_convergence_writes_rows_for_each_scale(tmp_path, monkeypatch):
    """The rows flushed one by one read as write_convergence_csv of the
    study's rows."""
    studies = []

    def recorded(*args, **kwargs):
        studies.append(convergence_study(*args, **kwargs))
        return studies[-1]

    monkeypatch.setattr(cli, "convergence_study", recorded)
    code, out = run(
        tmp_path,
        "--override", "coefficient=identity",
        "--override", "cell_resolution=16",
        "--override", "domain_resolution=32",
        "--override", "x2_samples=4",
        "--override", "h_list=[1,2]",
        "convergence")
    assert code == 0
    header, rows = read_csv(out / "convergence.csv")
    assert header == ["h", "l2_error", "energy", "warn_underresolved"]
    assert [r[0] for r in rows] == ["1", "2"]
    for row in rows:
        assert float(row[1]) <= 1e-12  # no oscillation, no gap
        assert float(row[2]) > 0
    expect = io.StringIO()
    write_convergence_csv(studies[0], expect)
    assert (out / "convergence.csv").read_text() == expect.getvalue()


def test_preview_respects_the_composed_periodicity(tmp_path):
    """Shifting x1 by 1/h lands on the same sampled value."""
    code, out = run(
        tmp_path,
        "--override", "omega=[0.5,1.5,0.5,1.5]",
        "--override", "preview_resolution=64",
        "preview", "--h", "4")
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


def test_data_files_are_byte_stable_across_runs(tmp_path):
    args = ["--override", "cell_resolution=32",
            "--override", "x2_samples=[0.25,0.5,0.75]", "homogenize"]
    code_a, out_a = main(["--out", str(tmp_path / "a"), *args]), tmp_path / "a"
    code_b, out_b = main(["--out", str(tmp_path / "b"), *args]), tmp_path / "b"
    assert code_a == code_b == 0
    assert (out_a / "tensor.csv").read_bytes() == (out_b / "tensor.csv").read_bytes()


# ---------------------------------------------------------------------------
# the exit-code contract, end to end
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command", ["aud", "preview", "homogenize", "convergence"])
def test_delta_without_room_below_2_exits_2_naming_delta(tmp_path, capsys, command):
    """With omega unset the domain is [delta, 2]^2, so delta >= 2 leaves none."""
    code, _ = run(tmp_path, "--override", "delta=2.5", command)
    assert code == 2
    err = capsys.readouterr().err
    assert "'delta'" in err and "x2_samples" not in err
    assert "Traceback" not in err
    assert ExperimentConfig.load(None, ["delta=2.5", "omega=[0.5,1,0.5,1]"])["delta"] == 2.5


_SMALL_OMEGA = st.builds(lambda a1, w1, a2, w2: [a1, a1 + w1, a2, a2 + w2],
                         st.sampled_from([0.05, 0.5, 1.0]), st.sampled_from([0.25, 1.0]),
                         st.sampled_from([0.05, 0.5, 1.0]), st.sampled_from([0.25, 1.0]))
_SCALES = st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True).map(sorted)
# accepted values, extreme ones included; at most one key gets a rejected one
_VALID = {
    "coefficient": st.sampled_from(["sine-product", "laminate", "identity"]),
    "amplitude": st.sampled_from([0.0, 0.5, 0.99]),
    "laminate_base": st.sampled_from([1.5, 1e300]),
    "delta": st.sampled_from([0.05, 1.5, 1.99]),
    "omega": st.one_of(st.none(), _SMALL_OMEGA),
    "scale_map": st.sampled_from(["stretch", "linear"]),
    "classical": st.booleans(),
    "x2_samples": st.one_of(st.integers(3, 4),
                            st.lists(st.floats(0.5, 1.2), min_size=1, max_size=3)),
    "h_list": _SCALES,
    "aud_h_list": _SCALES.map(lambda hs: [4 * h for h in hs]),
    "aud_subdivision": st.integers(1, 4),
    "cg_tol": st.sampled_from([1e-10, 1e-6, 1e-300]),
    "fem_tol": st.sampled_from([1e-8, 1e-300]),
    "dump_x2": st.sampled_from([0.5, 0.01, 50.0]),
    "preview_h": st.integers(1, 5),
}
_REJECTED = {
    "coefficient": st.just("checkerboard"),
    "amplitude": st.sampled_from([1.0, -0.1, "x"]),
    "delta": st.sampled_from([2.0, 3.0, 0.0]),
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
    "cg_tol": st.sampled_from([0.0, 1.0]),
    "dump_x2": st.sampled_from([0.0, -1.0]),
    "preview_h": st.just(0),
}
_SMALL_SIZES = {"cell_resolution": 16, "domain_resolution": 16,
                "preview_resolution": 16, "x2_samples": 3, "h_list": [1, 2],
                "aud_h_list": [1, 4]}


@settings(max_examples=400)
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
    argv.append(command)
    if command == "preview" and preview_h is not None:
        argv += ["--h", str(preview_h)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"exit {code}")
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
