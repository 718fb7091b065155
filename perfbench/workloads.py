"""The benchmark's three workloads: inputs from a seed, one pass, checks.

Each workload object builds its inputs from the seed once, then runs a
pass of operations on demand. An operation is one ``maphom`` CLI
invocation (``tensor_sweep``, ``fine_scale``) or one cell point
(``cell_point``). ``run_pass`` returns one ``Op`` per operation; an
operation fails on a nonzero exit, an exception such as ``SolverError``, or
a failed correctness check. Seed 0 is the documented input.

The workloads call maphom through module attributes at call time
(``maphom.cli.main``, ``maphom.cell.solve_corrector``, ...), so the tracer's
wrappers are seen when installed.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import shutil
import traceback
from pathlib import Path

import numpy as np

import maphom.cell
import maphom.cli
import maphom.coefficients
import maphom.homogenize

CG_TOL = 1e-10
REFERENCE_PATH = Path(__file__).resolve().parent / "cell_point_reference.json"

# the README's eigenvalue range of the default sweep
SWEEP_EIG_RANGE = (0.753635, 0.994590)
SWEEP_OMEGA2 = (0.05, 2.0)
CELL_AMPLITUDE = 0.99
# cell_point draws its x2 values from this grid: seed 0 takes every tenth
# point, other seeds move each one by up to CELL_JITTER grid steps
CELL_GRID = np.linspace(0.25, 2.0, 41)
CELL_STRIDE = 10
CELL_JITTER = 2


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``FULL`` is the benchmark, ``SMOKE`` the smoke test."""

    sweep_cells: int = 128
    sweep_samples: int = 64
    fine_omega: tuple = (0.5, 1.5, 0.5, 1.5)
    fine_mesh: int = 256
    fine_cells: int = 32
    fine_h: tuple = (1, 2, 4, 8)
    fine_ratio_max: float = 0.5
    point_cells: int = 256


FULL = Sizes()
# 32^2 mesh: the window's top edge is lowered so h up to 4 keeps eight
# elements per local period
SMOKE = Sizes(sweep_cells=16, sweep_samples=4, fine_omega=(0.5, 1.5, 0.5, 1.0),
              fine_mesh=32, fine_cells=16, fine_h=(1, 2, 4), fine_ratio_max=1.0,
              point_cells=16)


@dataclasses.dataclass
class Op:
    ok: bool
    note: str = ""
    bytes_written: int = 0
    detail: dict = dataclasses.field(default_factory=dict)


def _failed(exc: BaseException) -> Op:
    traceback.print_exception(exc)
    return Op(False, f"{type(exc).__name__}: {exc}")


def _out_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _eig_range(rows: list[dict]) -> tuple[float, float]:
    lo, hi = np.inf, -np.inf
    for r in rows:
        m = np.array([[float(r["b11"]), float(r["b12"])],
                      [float(r["b21"]), float(r["b22"])]])
        ev = np.linalg.eigvalsh(0.5 * (m + m.T))
        lo, hi = min(lo, ev[0]), max(hi, ev[1])
    return float(lo), float(hi)


class _CliWorkload:
    """A workload that is one ``maphom`` CLI invocation per pass."""

    name = ""

    def __init__(self, seed: int, sizes: Sizes, work_dir: Path):
        self.seed = int(seed)
        self.sizes = sizes
        self.work_dir = Path(work_dir)
        self.passes = 0
        self.args: list[str] = []

    def check(self, out_dir: Path) -> str:
        """Empty when the outputs are correct, otherwise the first problem."""
        raise NotImplementedError

    def run_pass(self, begin_op=lambda: None) -> list[Op]:
        self.passes += 1
        out_dir = self.work_dir / f"{self.name}-{self.passes}"
        begin_op()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = maphom.cli.main(["--out", str(out_dir), *self.args])
            if code != 0:
                return [Op(False, f"exit code {code}")]
            problem = self.check(out_dir)
            return [Op(not problem, problem, _out_bytes(out_dir))]
        except Exception as exc:  # an operation's failure is counted, not fatal
            return [_failed(exc)]
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


class TensorSweep(_CliWorkload):
    """``maphom homogenize`` with the defaults (seed 0).

    Other seeds move each x2 sample by up to a quarter of the sample
    spacing, staying inside its grid cell.
    """

    name = "tensor_sweep"

    def __init__(self, seed: int, sizes: Sizes, work_dir: Path):
        super().__init__(seed, sizes, work_dir)
        n = sizes.sweep_samples
        a2, b2 = SWEEP_OMEGA2
        self.x2 = np.linspace(a2, b2, n + 2)[1:-1]
        if sizes.sweep_cells != FULL.sweep_cells:
            self.args += ["--override", f"cell_resolution={sizes.sweep_cells}"]
        if self.seed != 0:
            rng = np.random.default_rng(self.seed)
            self.x2 = self.x2 + rng.uniform(-0.25, 0.25, n) * (b2 - a2) / (n + 1)
            self.args += ["--override",
                          "x2_samples=" + json.dumps([float(v) for v in self.x2])]
        elif n != FULL.sweep_samples:
            self.args += ["--override", f"x2_samples={n}"]
        self.args.append("homogenize")
        self.first_csv: bytes | None = None

    def check(self, out_dir: Path) -> str:
        data = (out_dir / "tensor.csv").read_bytes()
        rows = _read_csv(out_dir / "tensor.csv")
        if len(rows) != self.x2.size:
            return f"{len(rows)} rows, expected {self.x2.size}"
        x2 = np.array([float(r["x2"]) for r in rows])
        if not np.allclose(x2, self.x2, rtol=1e-12, atol=0):
            return "x2 column differs from the requested samples"
        off = max(max(abs(float(r["b12"])), abs(float(r["b21"]))) for r in rows)
        if not off <= 1e-12:
            return f"off-diagonal entry {off:.3e} is not zero"
        lo, hi = _eig_range(rows)
        if not (0.1 <= lo and hi <= 1.9):
            return f"eigenvalue range [{lo:.6f}, {hi:.6f}] leaves [0.1, 1.9]"
        if self.seed == 0 and self.sizes == FULL:
            want = SWEEP_EIG_RANGE
            if abs(lo - want[0]) > 1e-6 or abs(hi - want[1]) > 1e-6:
                return f"eigenvalue range [{lo:.6f}, {hi:.6f}] differs from {want}"
        if self.first_csv is None:
            self.first_csv = data
        elif data != self.first_csv:
            return "tensor.csv differs from the first pass's"
        return ""


class FineScale(_CliWorkload):
    """``maphom convergence`` on the window (0.5, 1.5)^2 at a 256^2 mesh.

    The input is the same for every seed.
    """

    name = "fine_scale"

    def __init__(self, seed: int, sizes: Sizes, work_dir: Path):
        super().__init__(seed, sizes, work_dir)
        self.args = ["--override", "omega=" + json.dumps(list(sizes.fine_omega)),
                     "--override", f"domain_resolution={sizes.fine_mesh}",
                     "--override", f"cell_resolution={sizes.fine_cells}",
                     "--override", "h_list=" + json.dumps(list(sizes.fine_h)),
                     "--override", f"x2_samples={sizes.sweep_samples}",
                     "convergence"]

    def check(self, out_dir: Path) -> str:
        rows = _read_csv(out_dir / "convergence.csv")
        hs = [int(r["h"]) for r in rows]
        if hs != list(self.sizes.fine_h):
            return f"rows for h = {hs}, expected {list(self.sizes.fine_h)}"
        errors = [float(r["l2_error"]) for r in rows]
        if not all(np.isfinite(e) and e > 0 for e in errors):
            return f"L2 errors {errors} are not finite and positive"
        if not all(b < a for a, b in zip(errors, errors[1:])):
            return f"L2 errors {errors} do not fall with h"
        if not errors[-1] / errors[0] <= self.sizes.fine_ratio_max:
            return (f"error ratio {errors[-1] / errors[0]:.3f} exceeds "
                    f"{self.sizes.fine_ratio_max}")
        flagged = [h for h, r in zip(hs, rows) if r["warn_underresolved"] != "0"]
        if flagged:
            return f"under-resolved rows for h = {flagged}"
        return ""


def _moved(index: int, move: int) -> int:
    return int(np.clip(index + move, 0, CELL_GRID.size - 1))


def cell_point_indices(seed: int) -> list[int]:
    """Indices into CELL_GRID of the seed's five x2 values."""
    base = list(range(0, CELL_GRID.size, CELL_STRIDE))
    if seed == 0:
        return base
    rng = np.random.default_rng(seed)
    moves = rng.integers(-CELL_JITTER, CELL_JITTER + 1, len(base))
    return [_moved(i, m) for i, m in zip(base, moves)]


def cell_point_pool() -> list[int]:
    """Every index into CELL_GRID that some seed can draw."""
    return sorted({_moved(i, m) for i in range(0, CELL_GRID.size, CELL_STRIDE)
                   for m in range(-CELL_JITTER, CELL_JITTER + 1)})


def cell_point_matrix(coefficient, x2: float, cells: int):
    """One cold cell point through the library: the corrector pair and B."""
    zeta = (1.0, 2.0 * x2)
    corr = maphom.cell.solve_corrector(coefficient, zeta, cells, tol=CG_TOL)
    return maphom.homogenize.homogenized_matrix_at(coefficient, zeta, corr), corr


class CellPoint:
    """Cold, independent cell points at high contrast (amplitude 0.99).

    B is checked for symmetry, for eigenvalues inside [0.01, 1.99] and
    against the reference table to an absolute tolerance of ``CG_TOL``:
    B is quadratic in the corrector error, and loosening the solver to a
    relative residual of 1e-6 moved no entry by more than 3e-14.
    """

    name = "cell_point"

    def __init__(self, seed: int, sizes: Sizes, work_dir: Path):
        self.seed = int(seed)
        self.sizes = sizes
        self.coefficient = maphom.coefficients.sine_product(CELL_AMPLITUDE)
        self.x2 = [float(CELL_GRID[i]) for i in cell_point_indices(self.seed)]
        with open(REFERENCE_PATH) as f:
            self.reference = json.load(f)["resolutions"].get(str(sizes.point_cells), {})

    def check(self, x2: float, B) -> str:
        B = np.asarray(B, dtype=float)
        if B.shape != (2, 2) or not np.all(np.isfinite(B)):
            return "B is not a finite 2x2 matrix"
        if not abs(B[0, 1] - B[1, 0]) <= CG_TOL:
            return f"B is not symmetric: {B[0, 1]:.3e} vs {B[1, 0]:.3e}"
        ev = np.linalg.eigvalsh(0.5 * (B + B.T))
        if not (0.01 <= ev[0] and ev[1] <= 1.99):
            return f"eigenvalues {ev} leave [0.01, 1.99]"
        ref = self.reference.get(repr(x2))
        if ref is None:
            return f"no reference for x2 = {x2!r} at {self.sizes.point_cells}^2 cells"
        gap = float(np.max(np.abs(B - np.asarray(ref["B"]))))
        if not gap <= CG_TOL:
            return f"B differs from the reference by {gap:.3e}"
        return ""

    def run_pass(self, begin_op=lambda: None) -> list[Op]:
        ops = []
        for x2 in self.x2:
            begin_op()
            try:
                B, corr = cell_point_matrix(self.coefficient, x2, self.sizes.point_cells)
                problem = self.check(x2, B)
                ops.append(Op(not problem, problem, detail={
                    "x2": x2, "iterations": list(corr.iterations)}))
            except Exception as exc:  # an operation's failure is counted, not fatal
                ops.append(_failed(exc))
        return ops


WORKLOADS = {w.name: w for w in (TensorSweep, FineScale, CellPoint)}


def make(name: str, seed: int, sizes: Sizes, work_dir: Path):
    return WORKLOADS[name](seed, sizes, work_dir)
