"""Command-line experiment runner.

Subcommands: homogenize, aud, convergence, preview, corrector-dump. Each
reads a flat JSON config (overridable per key from the command line),
writes deterministic CSV data files plus a JSON run manifest, and exits
0 on success, 2 on a configuration error, 3 on a numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import coefficients
from .cell import solve_corrector, write_corrector_csv
from .finescale import ConvergenceRow, DomainMesh, convergence_study
from .homogenize import (
    HomogenizationJob,
    default_x2_samples,
    isotropy_scan,
    tensor_field,
    write_tensor_csv,
)
from .numerics import Rectangle, SolverError, UniformCellGrid
from .structure import LinearScaleMap, QuadraticStretchMap, aud_verify, write_aud_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    """Invalid configuration; carries the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"config key '{key}': {message}")
        self.key = key


DEFAULTS: dict = {
    "coefficient": "sine-product",
    "amplitude": 0.9,
    "laminate_base": 2.0,
    "delta": 0.05,
    "omega": None,  # [a1, b1, a2, b2]; defaults to [delta, 2, delta, 2]
    "scale_map": "stretch",  # or "linear"
    "classical": False,
    "cell_resolution": 128,
    "domain_resolution": 512,
    "preview_resolution": 256,
    "x2_samples": 64,  # count, or an explicit list of values
    "h_list": [1, 2, 4, 8],
    "aud_h_list": [4, 16, 64, 256],
    "aud_subdivision": 4,
    "cg_tol": 1e-10,
    "fem_tol": 1e-8,
    "dump_x2": 0.5,
    "preview_h": 3,
    "out_dir": "out",
}

_RESOLUTION_KEYS = ("cell_resolution", "domain_resolution", "preview_resolution")

# caps on accepted values that would make a run huge. Meshes stop at
# 1024 elements per side, so past h = 1024 a unit-size window has less
# than one element per period. MAX_AUD_SCAN bounds the offsets the audit
# indexes, max(aud_h_list) (b2^2 - a2^2) aud_subdivision subcell rows; the
# audit reads its maximum off the first and cross-checks random ones.
MAX_X2_SAMPLES = 4096
MAX_SCALE_INDEX = 1024
MAX_AUD_SUBDIVISION = 64
MAX_AUD_SCAN = 10 ** 8


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _typed(key: str, value, kind: type):
    """``value`` as a ``str``, ``bool``, ``int`` or finite ``float``.

    Integral floats count as integers and integers as floats; anything
    else raises ConfigError naming ``key``.
    """
    if kind in (str, bool):
        if not isinstance(value, kind):
            raise ConfigError(key, f"must be a {kind.__name__}, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(key, f"must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(key, f"must be finite, got {value!r}")
    if kind is int:
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(key, f"must be an integer, got {value!r}")
        return int(value)
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(key, f"is out of range: {value!r}")


def _typed_list(key: str, value, kind: type) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(key, f"must be a list, got {value!r}")
    return [_typed(key, item, kind) for item in value]


@dataclasses.dataclass
class ExperimentConfig:
    """Validated experiment settings; see DEFAULTS for the key set."""

    values: dict

    def __getitem__(self, key):
        return self.values[key]

    @staticmethod
    def load(path: str | None, overrides: list[str] | None = None) -> "ExperimentConfig":
        values = dict(DEFAULTS)
        if path is not None:
            try:
                with open(path) as f:
                    data = json.load(f)
            except FileNotFoundError:
                raise ConfigError("config", f"file not found: {path}")
            except json.JSONDecodeError as exc:
                raise ConfigError("config", f"not valid JSON: {exc}")
            if not isinstance(data, dict):
                raise ConfigError("config", "top level must be a JSON object")
            for key, val in data.items():
                if key not in DEFAULTS:
                    raise ConfigError(key, "unknown key")
                if isinstance(val, dict):
                    raise ConfigError(key, "nested objects are not allowed")
                values[key] = val
        for item in overrides or []:
            if "=" not in item:
                raise ConfigError(item, "override must look like key=value")
            key, _, raw = item.partition("=")
            if key not in DEFAULTS:
                raise ConfigError(key, "unknown key")
            try:
                values[key] = json.loads(raw)
            except json.JSONDecodeError:
                values[key] = raw  # bare strings stay strings
        cfg = ExperimentConfig(values)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Check every key and replace its value by the typed one."""
        v = self.values
        for key in ("coefficient", "scale_map", "out_dir"):
            _typed(key, v[key], str)
        v["classical"] = _typed("classical", v["classical"], bool)
        if v["coefficient"] not in ("sine-product", "laminate", "identity"):
            raise ConfigError("coefficient",
                              "must be one of sine-product, laminate, identity")
        v["amplitude"] = _typed("amplitude", v["amplitude"], float)
        if not 0 <= v["amplitude"] < 1:
            raise ConfigError("amplitude", "must lie in [0, 1)")
        v["laminate_base"] = _typed("laminate_base", v["laminate_base"], float)
        if v["coefficient"] == "laminate" and not v["laminate_base"] > v["amplitude"]:
            raise ConfigError("laminate_base", "must exceed amplitude")
        for key in _RESOLUTION_KEYS:
            v[key] = _typed(key, v[key], int)
            if not (_is_power_of_two(v[key]) and 16 <= v[key] <= 1024):
                raise ConfigError(key, "must be a power of two between 16 and 1024")
        for key in ("h_list", "aud_h_list"):
            hs = _typed_list(key, v[key], int)
            if not hs:
                raise ConfigError(key, "must be a non-empty list")
            if any(h < 1 for h in hs):
                raise ConfigError(key, "entries must be positive integers")
            if any(b <= a for a, b in zip(hs, hs[1:])):
                raise ConfigError(key, "must be strictly increasing")
            v[key] = hs
        if max(v["h_list"]) > MAX_SCALE_INDEX:
            raise ConfigError("h_list", f"entries must be at most {MAX_SCALE_INDEX}")
        if v["omega"] is not None:
            om = _typed_list("omega", v["omega"], float)
            if len(om) != 4:
                raise ConfigError("omega", "must be [a1, b1, a2, b2]")
            a1, b1, a2, b2 = om
            if not (0 < a1 < b1 and 0 < a2 < b2):
                raise ConfigError("omega", "must satisfy 0 < a1 < b1 and 0 < a2 < b2")
            v["omega"] = om
        v["delta"] = _typed("delta", v["delta"], float)
        if not v["delta"] > 0:
            raise ConfigError("delta", "must be positive")
        if v["omega"] is None and not v["delta"] < 2:
            raise ConfigError("delta", "must be below 2 when omega is unset")
        if v["scale_map"] not in ("stretch", "linear"):
            raise ConfigError("scale_map", "must be 'stretch' or 'linear'")
        if isinstance(v["x2_samples"], (list, tuple)):
            xs = _typed_list("x2_samples", v["x2_samples"], float)
            if not xs:
                raise ConfigError("x2_samples", "list must not be empty")
            count = len(xs)
        else:
            xs = count = _typed("x2_samples", v["x2_samples"], int)
            if xs < 3:
                raise ConfigError("x2_samples", "sample count must be an integer >= 3")
        if count > MAX_X2_SAMPLES:
            raise ConfigError("x2_samples", f"at most {MAX_X2_SAMPLES} samples")
        v["x2_samples"] = xs
        v["aud_subdivision"] = _typed("aud_subdivision", v["aud_subdivision"], int)
        if not 1 <= v["aud_subdivision"] <= MAX_AUD_SUBDIVISION:
            raise ConfigError("aud_subdivision",
                              f"must be an integer from 1 to {MAX_AUD_SUBDIVISION}")
        for key in ("cg_tol", "fem_tol"):
            v[key] = _typed(key, v[key], float)
            if not 0 < v[key] < 1:
                raise ConfigError(key, "must lie in (0, 1)")
        v["dump_x2"] = _typed("dump_x2", v["dump_x2"], float)
        if not v["dump_x2"] > 0:
            raise ConfigError("dump_x2", "must be positive")
        v["preview_h"] = _typed("preview_h", v["preview_h"], int)
        if not 1 <= v["preview_h"] <= MAX_SCALE_INDEX:
            raise ConfigError("preview_h", f"must be an integer from 1 to {MAX_SCALE_INDEX}")

    # -- derived objects ----------------------------------------------------

    def omega(self) -> Rectangle:
        if self.values["omega"] is not None:
            a1, b1, a2, b2 = map(float, self.values["omega"])
        else:
            d = float(self.values["delta"])
            a1, b1, a2, b2 = d, 2.0, d, 2.0
        return Rectangle(a1, b1, a2, b2)

    def coefficient(self):
        name = self.values["coefficient"]
        if name == "sine-product":
            return coefficients.sine_product(float(self.values["amplitude"]))
        if name == "laminate":
            return coefficients.laminate(float(self.values["laminate_base"]),
                                         float(self.values["amplitude"]))
        return coefficients.identity()

    def map_family(self):
        if self.values["scale_map"] == "linear":
            return LinearScaleMap
        return QuadraticStretchMap

    def x2_sample_values(self) -> np.ndarray:
        xs = self.values["x2_samples"]
        if isinstance(xs, (list, tuple)):
            return np.asarray(xs, dtype=float)
        return default_x2_samples(self.omega(), int(xs))

    def job(self) -> HomogenizationJob:
        """The tensor-field job. ``validate`` has checked every other key
        the job reads, so a job that cannot be built blames the samples."""
        coefficient, omega = self.coefficient(), self.omega()
        try:
            return HomogenizationJob(
                coefficient=coefficient,
                omega=omega,
                x2_samples=self.x2_sample_values(),
                cell_resolution=self.values["cell_resolution"],
                tol=float(self.values["cg_tol"]),
                classical=self.values["classical"]
                or self.values["scale_map"] == "linear",
            )
        except ValueError as exc:
            raise ConfigError("x2_samples", str(exc))


@dataclasses.dataclass
class RunManifest:
    """Record of one command invocation, written next to its data files."""

    command: str
    config: dict
    runtimes: dict
    outputs: list
    solver: dict | None = None

    def write(self, out_dir: Path) -> Path:
        for entry in self.outputs:
            path = out_dir / entry["name"]
            if not path.is_file() or path.stat().st_size == 0:
                raise RuntimeError(f"declared output missing or empty: {path}")
        payload = {
            "command": self.command,
            "config": self.config,
            "runtimes_seconds": self.runtimes,
            "outputs": self.outputs,
            "solver": self.solver,
            "versions": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "maphom": _package_version(),
            },
        }
        path = out_dir / "manifest.json"
        with open(path, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
        return path


def _package_version() -> str:
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("maphom")
    except PackageNotFoundError:
        return "unknown"


def _file_entry(path: Path) -> dict:
    data = path.read_bytes()
    return {
        "name": path.name,
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
    }


def _solver_record(field) -> dict:
    """The cell solves' preconditioner, CG iterations and residuals per
    scaling."""
    residuals = field.metadata["cg_residuals"]
    return {
        "preconditioner": field.metadata["preconditioner"],
        "cg_iterations": [{"zeta2": z2, "iterations": list(its),
                           "residuals": list(residuals[z2])}
                          for z2, its in field.metadata["cg_iterations"].items()],
    }


class _StageClock:
    def __init__(self):
        self.times: dict = {}

    def run(self, name: str, fn):
        start = time.perf_counter()
        result = fn()
        self.times[name] = round(time.perf_counter() - start, 3)
        return result


def cmd_homogenize(cfg: ExperimentConfig, out_dir: Path) -> None:
    """Tensor field over the domain, CSV curves and the isotropy scan."""
    clock = _StageClock()
    field = clock.run("tensor_field", lambda: tensor_field(cfg.job()))
    csv_path = out_dir / "tensor.csv"
    with open(csv_path, "w", newline="") as f:
        write_tensor_csv(field, f)
    if field.x2.size >= 3:
        scan = isotropy_scan(field)
        print(f"isotropy: min |b11 - b22| = {scan.gap:.6e} at x2 = {scan.x2:.6g}")
    RunManifest("homogenize", cfg.values, clock.times,
                [_file_entry(csv_path)], _solver_record(field)).write(out_dir)


def cmd_aud(cfg: ExperimentConfig, out_dir: Path) -> None:
    """Uniform-distribution diagnostics for the configured scale indices."""
    omega, n = cfg.omega(), cfg["aud_subdivision"]
    # products overflow to inf and differences of infs give nan, so a
    # domain too large for floats is refused as well
    per_h = (omega.b2 * omega.b2 - omega.a2 * omega.a2) * n
    if not per_h <= MAX_AUD_SCAN / max(cfg["aud_h_list"]):
        raise ConfigError("aud_h_list", "the audit would index max(aud_h_list) "
                          f"(b2^2 - a2^2) aud_subdivision > {MAX_AUD_SCAN:.0e} rows")
    clock = _StageClock()
    reports = clock.run("aud_verify", lambda: aud_verify(cfg["aud_h_list"], n, omega))
    csv_path = out_dir / "aud.csv"
    with open(csv_path, "w", newline="") as f:
        write_aud_csv(reports, f)
    for rep in reports:
        if rep.empty:
            print(f"h={rep.h}: no interior cells")
        else:
            print(f"h={rep.h}: max deviation {rep.max_deviation:.6e} "
                  f"over j2 in [{rep.j2_min}, {rep.j2_max}]")
    RunManifest("aud", cfg.values, clock.times,
                [_file_entry(csv_path)]).write(out_dir)


def cmd_convergence(cfg: ExperimentConfig, out_dir: Path) -> None:
    """h-sweep of fine-scale solves against the effective-tensor solve.

    Rows are flushed as they complete so an aborted sweep leaves the
    finished prefix on disk.
    """
    clock = _StageClock()
    field = clock.run("tensor_field", lambda: tensor_field(cfg.job()))
    omega = cfg.omega()
    n = cfg["domain_resolution"]
    mesh = DomainMesh(omega, n, n)

    def source(pts):
        return np.ones(pts.shape[0])

    csv_path = out_dir / "convergence.csv"
    with open(csv_path, "w", newline="") as f:
        f.write(ConvergenceRow.CSV_HEADER)
        f.flush()

        def on_row(row):
            f.write(row.csv_line())
            f.flush()

        dirichlet = []
        clock.run("solves", lambda: convergence_study(
            cfg.coefficient(), cfg.map_family(), source, mesh,
            cfg["h_list"], field, tol=float(cfg["fem_tol"]), on_row=on_row,
            on_solve=lambda u: dirichlet.append(u.diagnostics())))
    solver = _solver_record(field)
    solver["dirichlet"] = dirichlet
    RunManifest("convergence", cfg.values, clock.times,
                [_file_entry(csv_path)], solver).write(out_dir)


def cmd_preview(cfg: ExperimentConfig, out_dir: Path) -> None:
    """Sample the composed coefficient's (1,1) entry on a grid over omega."""
    clock = _StageClock()
    omega = cfg.omega()
    scale_map = cfg.map_family()(cfg["preview_h"])
    coeff = cfg.coefficient()
    n = cfg["preview_resolution"]

    def sample():
        x1 = np.linspace(omega.a1, omega.b1, n + 1)
        x2 = np.linspace(omega.a2, omega.b2, n + 1)
        yy, xx = np.meshgrid(x2, x1)
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        return pts, coeff.evaluate(scale_map(pts))[:, 0, 0]

    pts, vals = clock.run("sample", sample)
    csv_path = out_dir / "preview.csv"
    with open(csv_path, "w", newline="") as f:
        f.write("x1,x2,value\n")
        for (x1, x2), v in zip(pts, vals):
            f.write(f"{x1:.17g},{x2:.17g},{v:.17g}\n")
    RunManifest("preview", cfg.values, clock.times,
                [_file_entry(csv_path)]).write(out_dir)


def cmd_corrector_dump(cfg: ExperimentConfig, out_dir: Path) -> None:
    """Solve one corrector pair at the configured x2 and dump nodal values."""
    clock = _StageClock()
    x2 = float(cfg["dump_x2"])
    zeta = (1.0, 1.0) if cfg["scale_map"] == "linear" or cfg["classical"] \
        else (1.0, 2.0 * x2)
    grid = UniformCellGrid(cfg["cell_resolution"], periodic=True)
    field = clock.run("solve", lambda: solve_corrector(
        cfg.coefficient(), zeta, grid, tol=float(cfg["cg_tol"])))
    csv_path = out_dir / "corrector.csv"
    with open(csv_path, "w", newline="") as f:
        write_corrector_csv(field, f)
    RunManifest("corrector-dump", cfg.values, clock.times,
                [_file_entry(csv_path)]).write(out_dir)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maphom",
        description="Effective-coefficient experiments for stretched periodic "
                    "microstructures.",
    )
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="flat JSON config file")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="output directory (default: config out_dir)")
    parser.add_argument("--override", metavar="KEY=VALUE", action="append",
                        default=[], help="override one config key (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("homogenize", help="effective tensor curves over the domain")
    sub.add_parser("aud", help="cell distribution diagnostics")
    sub.add_parser("convergence", help="fine-scale vs homogenized error sweep")
    sub.add_parser("preview", help="composed coefficient samples")
    sub.add_parser("corrector-dump", help="nodal corrector values at one x2")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.load(args.config, args.override)
        out_dir = Path(args.out if args.out is not None else cfg["out_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "homogenize":
            cmd_homogenize(cfg, out_dir)
        elif args.command == "aud":
            cmd_aud(cfg, out_dir)
        elif args.command == "convergence":
            cmd_convergence(cfg, out_dir)
        elif args.command == "preview":
            cmd_preview(cfg, out_dir)
        elif args.command == "corrector-dump":
            cmd_corrector_dump(cfg, out_dir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
