"""Command-line experiment runner.

Subcommands: homogenize, aud, convergence, preview, corrector-dump. Each
reads a flat JSON config (overridable per key from the command line),
writes deterministic CSV data files plus a JSON run manifest, and exits
0 on success, 2 on a configuration error, 3 on a numerical failure. It
is the package's one writer and owns every CSV format.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import sys
import time
from collections.abc import Callable
from pathlib import Path

import numpy as np
import scipy

from . import coefficients
from .cell import solve_corrector
from .finescale import DirichletProblem, l2_error
from .homogenize import default_x2_samples, isotropy_scan, tensor_field
from .numerics import Rectangle, SolverError, UniformCellGrid
from .structure import LinearScaleMap, QuadraticStretchMap, aud_verify

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    """Invalid configuration; carries the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"config key '{key}': {message}")
        self.key = key


# caps on accepted values that would make a run huge. Meshes stop at
# 1024 elements per side, so past h = 1024 a unit-size window has less
# than one element per period. MAX_AUD_SCAN bounds the offsets the audit
# indexes, max(aud_h_list) (b2^2 - a2^2) aud_subdivision subcell rows; the
# audit reads its maximum off the first and cross-checks random ones.
MAX_X2_SAMPLES = 4096
MAX_SCALE_INDEX = 1024
MAX_AUD_SUBDIVISION = 64
MAX_AUD_SCAN = 10 ** 8

# the cell coefficient of each config name, built from the config
COEFFICIENTS = {
    "sine-product": lambda cfg: coefficients.sine_product(cfg["amplitude"]),
    "laminate": lambda cfg: coefficients.laminate(cfg["laminate_base"], cfg["amplitude"]),
    "identity": lambda cfg: coefficients.identity(),
}
SCALE_MAPS = {"stretch": QuadraticStretchMap, "linear": LinearScaleMap}


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


@dataclasses.dataclass(frozen=True)
class Key:
    """One config key: its default, the kind of its value (``[kind]`` for
    a list of them) and the rule the typed value must pass, with the
    message that says what the rule asks."""

    default: object
    kind: type | list
    rule: Callable = lambda value: True
    message: str = ""

    def read(self, key: str, value):
        """``value`` as this key's kind; a ConfigError naming ``key`` if it
        is of another kind or breaks the rule."""
        if isinstance(self.kind, list):
            value = _typed_list(key, value, self.kind[0])
        else:
            value = _typed(key, value, self.kind)
        if not self.rule(value):
            raise ConfigError(key, self.message)
        return value


def _scales(top: float) -> Callable:
    """The rule of a scale list: non-empty, strictly increasing, from 1 to
    ``top``."""
    return lambda hs: bool(hs) and 1 <= hs[0] and hs[-1] <= top and all(
        a < b for a, b in zip(hs, hs[1:]))


_RESOLUTION = (lambda n: 16 <= n <= 1024 and n & (n - 1) == 0,
               "must be a power of two between 16 and 1024")

KEYS = {
    "coefficient": Key("sine-product", str, COEFFICIENTS.__contains__,
                       "must be one of " + ", ".join(COEFFICIENTS)),
    "amplitude": Key(0.9, float, lambda a: 0 <= a < 1, "must lie in [0, 1)"),
    "laminate_base": Key(2.0, float),  # must exceed amplitude, see validate
    "omega": Key([0.05, 2.0, 0.05, 2.0], [float],
                 lambda om: len(om) == 4 and 0 < om[0] < om[1] and 0 < om[2] < om[3],
                 "must be [a1, b1, a2, b2] with 0 < a1 < b1 and 0 < a2 < b2"),
    "scale_map": Key("stretch", str, SCALE_MAPS.__contains__,
                     "must be one of " + ", ".join(SCALE_MAPS)),
    "classical": Key(False, bool),
    "cell_resolution": Key(128, int, *_RESOLUTION),
    "domain_resolution": Key(512, int, *_RESOLUTION),
    "preview_resolution": Key(256, int, *_RESOLUTION),
    # a count, or a list of values inside (a2, b2), see validate
    "x2_samples": Key(64, int, lambda n: 3 <= n <= MAX_X2_SAMPLES,
                      f"sample count must be an integer from 3 to {MAX_X2_SAMPLES}"),
    "h_list": Key([1, 2, 4, 8], [int], _scales(MAX_SCALE_INDEX),
                  "must be a non-empty, strictly increasing list of integers "
                  f"from 1 to {MAX_SCALE_INDEX}"),
    "aud_h_list": Key([4, 16, 64, 256], [int], _scales(math.inf),
                      "must be a non-empty, strictly increasing list of positive integers"),
    "aud_subdivision": Key(4, int, lambda n: 1 <= n <= MAX_AUD_SUBDIVISION,
                           f"must be an integer from 1 to {MAX_AUD_SUBDIVISION}"),
    "fem_tol": Key(1e-8, float, lambda t: 0 < t < 1, "must lie in (0, 1)"),
    "dump_x2": Key(0.5, float, lambda x: x > 0, "must be positive"),
    "preview_h": Key(3, int, lambda h: 1 <= h <= MAX_SCALE_INDEX,
                     f"must be an integer from 1 to {MAX_SCALE_INDEX}"),
    "out_dir": Key("out", str),
}


@dataclasses.dataclass
class ExperimentConfig:
    """Validated experiment settings; see KEYS for the key set."""

    values: dict

    def __getitem__(self, key):
        return self.values[key]

    @staticmethod
    def load(path: str | None, overrides: list[str] | None = None) -> "ExperimentConfig":
        values = {key: row.default for key, row in KEYS.items()}
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
                if key not in KEYS:
                    raise ConfigError(key, "unknown key")
                if isinstance(val, dict):
                    raise ConfigError(key, "nested objects are not allowed")
                values[key] = val
        for item in overrides or []:
            if "=" not in item:
                raise ConfigError(item, "override must look like key=value")
            key, _, raw = item.partition("=")
            if key not in KEYS:
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
        for key, row in KEYS.items():
            if not (key == "x2_samples" and isinstance(v[key], (list, tuple))):
                v[key] = row.read(key, v[key])
        if v["coefficient"] == "laminate" and not v["laminate_base"] > v["amplitude"]:
            raise ConfigError("laminate_base", "must exceed amplitude")
        if isinstance(v["x2_samples"], (list, tuple)):
            xs = _typed_list("x2_samples", v["x2_samples"], float)
            if not 1 <= len(xs) <= MAX_X2_SAMPLES:
                raise ConfigError("x2_samples", f"a list must hold 1 to {MAX_X2_SAMPLES} values")
            a2, b2 = v["omega"][2:]
            outside = [x for x in xs if not a2 < x < b2]
            if outside:
                raise ConfigError("x2_samples",
                                  f"sample {outside[0]} lies outside ({a2}, {b2}) of omega")
            v["x2_samples"] = xs

    # -- derived objects ----------------------------------------------------

    def omega(self) -> Rectangle:
        return Rectangle(*self.values["omega"])

    def coefficient(self):
        return COEFFICIENTS[self.values["coefficient"]](self)

    def x2_sample_values(self) -> np.ndarray:
        xs = self.values["x2_samples"]
        if isinstance(xs, list):
            return np.asarray(xs, dtype=float)
        return default_x2_samples(self.omega(), xs)

    def is_classical(self) -> bool:
        """Whether every cell is solved with zeta = (1, 1): the classical
        baseline, or the linear scale map, whose scaling is (1, 1)."""
        return self.values["classical"] or self.values["scale_map"] == "linear"


@dataclasses.dataclass
class RunManifest:
    """Record of one command invocation, written next to its data files.

    ``stage`` times a stage of the run, ``csv`` opens a data file under
    ``out_dir`` and ``write`` checks every file and writes the manifest.
    """

    command: str
    config: dict
    out_dir: Path
    runtimes: dict = dataclasses.field(default_factory=dict)
    outputs: list = dataclasses.field(default_factory=list)
    solver: dict | None = None

    def stage(self, name: str, fn):
        """``fn()``, with its wall time recorded under ``name``."""
        start = time.perf_counter()
        result = fn()
        self.runtimes[name] = round(time.perf_counter() - start, 3)
        return result

    @contextlib.contextmanager
    def csv(self, name: str, header: str):
        """A stream on ``out_dir / name`` that starts with ``header``; the
        file is recorded as an output once the block ends."""
        path = self.out_dir / name
        with open(path, "w", newline="") as stream:
            stream.write(header)
            yield stream
        self.outputs.append(path)

    def write(self) -> None:
        outputs = []
        for path in self.outputs:
            data = path.read_bytes() if path.is_file() else b""
            if not data:
                raise RuntimeError(f"declared output missing or empty: {path}")
            outputs.append({"name": path.name, "bytes": len(data),
                            "sha256": hashlib.sha256(data).hexdigest()})
        payload = {
            "command": self.command,
            "config": self.config,
            "runtimes_seconds": self.runtimes,
            "outputs": outputs,
            "solver": self.solver,
            "versions": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "maphom": _package_version(),
            },
        }
        with open(self.out_dir / "manifest.json", "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")


def _package_version() -> str:
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("maphom")
    except PackageNotFoundError:
        return "unknown"


def _solver_record(field) -> dict:
    """A sweep's manifest ``solver`` entry: its run-wide metadata, and its
    per-scaling records under ``cg_iterations``."""
    meta = field.metadata
    return {**{key: meta[key] for key in ("preconditioner", "warm_start", "effective_matrix",
                                          "bound_target", "truth_scalings")},
            "cg_iterations": meta["scalings"]}


def write_tensor_csv(field, stream) -> None:
    """Write the x2,b11,b12,b21,b22 rows of a tensor field, one per sample."""
    stream.writelines("%.17g,%.17g,%.17g,%.17g,%.17g\n" % row for row in
                      zip(field.x2.tolist(), *field.matrices.reshape(-1, 4).T.tolist()))


def _tensor_field(cfg: ExperimentConfig, run: RunManifest):
    """The timed tensor field at the configured samples."""
    return run.stage("tensor_field", lambda: tensor_field(
        cfg.coefficient(), cfg.x2_sample_values(), cell_resolution=cfg["cell_resolution"],
        classical=cfg.is_classical()))


def cmd_homogenize(cfg: ExperimentConfig, run: RunManifest) -> None:
    """Tensor field over the domain, CSV curves and the isotropy scan."""
    field = _tensor_field(cfg, run)
    with run.csv("tensor.csv", "x2,b11,b12,b21,b22\n") as f:
        write_tensor_csv(field, f)
    if field.x2.size >= 3:
        scan = isotropy_scan(field)
        print(f"isotropy: min |b11 - b22| = {scan.gap:.6e} at x2 = {scan.x2:.6g}")
    run.solver = _solver_record(field)


def cmd_aud(cfg: ExperimentConfig, run: RunManifest) -> None:
    """Uniform-distribution diagnostics for the configured scale indices."""
    omega, n = cfg.omega(), cfg["aud_subdivision"]
    # products overflow to inf and differences of infs give nan, so a
    # domain too large for floats is refused as well
    per_h = (omega.b2 * omega.b2 - omega.a2 * omega.a2) * n
    if not per_h <= MAX_AUD_SCAN / max(cfg["aud_h_list"]):
        raise ConfigError("aud_h_list", "the audit would index max(aud_h_list) "
                          f"(b2^2 - a2^2) aud_subdivision > {MAX_AUD_SCAN:.0e} rows")
    reports = run.stage("aud_verify", lambda: aud_verify(cfg["aud_h_list"], n, omega))
    with run.csv("aud.csv", "h,n,j2_min,j2_max,max_deviation\n") as f:
        for rep in reports:
            if rep.empty:
                f.write("%d,%d,,,\n" % (rep.h, rep.n))
                print(f"h={rep.h}: no interior cells")
            else:
                f.write("%d,%d,%d,%d,%.17g\n" % (rep.h, rep.n, rep.j2_min, rep.j2_max,
                                                 rep.max_deviation))
                print(f"h={rep.h}: max deviation {rep.max_deviation:.6e} "
                      f"over j2 in [{rep.j2_min}, {rep.j2_max}]")


def cmd_convergence(cfg: ExperimentConfig, run: RunManifest) -> None:
    """h-sweep of fine-scale solves against the effective-tensor solve.

    One DirichletProblem serves every solve, so the source f = 1 is
    evaluated once. The homogenized reference is solved once; each h adds
    one oscillatory solve, whose L2 distance to the reference, energy and
    resolution flag make its row. The manifest holds each solve's
    diagnostics, the reference first. The header and each finished row
    are flushed, so an aborted sweep leaves the finished prefix on disk.
    """
    try:
        grid = UniformCellGrid(cfg["domain_resolution"], periodic=False,
                               rectangle=cfg.omega())
    except ValueError as exc:
        raise ConfigError("omega", str(exc))
    field = _tensor_field(cfg, run)
    dirichlet = []
    with run.csv("convergence.csv", "h,l2_error,energy,warn_underresolved\n") as f:
        f.flush()

        def solves():
            coefficient, tol = cfg.coefficient(), cfg["fem_tol"]
            problem = DirichletProblem(grid, lambda pts: np.ones(pts.shape[0]))
            reference = problem.homogenized(field, tol)
            dirichlet.append(reference.diagnostics())
            for h in cfg["h_list"]:
                u_h = problem.oscillatory(coefficient, SCALE_MAPS[cfg["scale_map"]](h), tol)
                dirichlet.append(u_h.diagnostics())
                f.write("%d,%.17g,%.17g,%d\n" % (h, l2_error(u_h, reference), u_h.energy,
                                                 u_h.warn_underresolved))
                f.flush()

        run.stage("solves", solves)
    run.solver = {**_solver_record(field), "dirichlet": dirichlet}


def cmd_preview(cfg: ExperimentConfig, run: RunManifest) -> None:
    """Sample the composed coefficient's (1,1) entry on a grid over omega."""
    omega = cfg.omega()
    scale_map = SCALE_MAPS[cfg["scale_map"]](cfg["preview_h"])
    coeff = cfg.coefficient()
    n = cfg["preview_resolution"]

    def sample():
        x1 = np.linspace(omega.a1, omega.b1, n + 1)
        x2 = np.linspace(omega.a2, omega.b2, n + 1)
        yy, xx = np.meshgrid(x2, x1)
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        with np.errstate(over="ignore"):
            mapped = scale_map(pts)
        if not np.all(np.isfinite(mapped)):
            raise ConfigError("omega", f"the scale map at h = {scale_map.h} overflows on it")
        return pts, coeff.evaluate(mapped)[:, 0, 0]

    pts, vals = run.stage("sample", sample)
    with run.csv("preview.csv", "x1,x2,value\n") as f:
        f.writelines("%.17g,%.17g,%.17g\n" % row
                     for row in zip(*pts.T.tolist(), vals.tolist()))


def cmd_corrector_dump(cfg: ExperimentConfig, run: RunManifest) -> None:
    """Solve one corrector pair at the configured x2 and dump nodal values."""
    zeta = (1.0, 1.0) if cfg.is_classical() else (1.0, 2.0 * cfg["dump_x2"])
    field = run.stage("solve", lambda: solve_corrector(
        cfg.coefficient(), zeta, cfg["cell_resolution"]))
    with run.csv("corrector.csv", "y1,y2,z1,z2\n") as f:
        f.writelines("%.17g,%.17g,%.17g,%.17g\n" % row for row in zip(
            *field.grid.node_coords().T.tolist(), *field.z.tolist()))


COMMANDS = {
    "homogenize": (cmd_homogenize, "effective tensor curves over the domain"),
    "aud": (cmd_aud, "cell distribution diagnostics"),
    "convergence": (cmd_convergence, "fine-scale vs homogenized error sweep"),
    "preview": (cmd_preview, "composed coefficient samples"),
    "corrector-dump": (cmd_corrector_dump, "nodal corrector values at one x2"),
}


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
    for name, (_, help_text) in COMMANDS.items():
        sub.add_parser(name, help=help_text)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.load(args.config, args.override)
        run = RunManifest(args.command, cfg.values,
                          Path(args.out if args.out is not None else cfg["out_dir"]))
        run.out_dir.mkdir(parents=True, exist_ok=True)
        COMMANDS[args.command][0](cfg, run)
        run.write()
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
