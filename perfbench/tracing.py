"""In-memory span tracing of maphom's layers, from outside the package.

The tracer wraps public functions at the module attributes through which
maphom calls them (for example ``maphom.cell.cg_solve``), so the package
itself is not modified. Each wrapped call records one span: its kind, start
and end times, the index of the enclosing span and attributes read from the
call's arguments or result. Spans stay in memory; the caller writes them out
when the run ends.

A layer's self time is its spans' durations minus the time covered by their
direct child spans. ``layer_metrics`` turns the spans of one pass into the
per-layer metrics; ``other_s`` is the part of the pass covered by no span,
so the self times and ``other_s`` add up to the pass's wall time.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time

LAYERS = ("coefficients", "structure", "numerics", "cell", "homogenize",
          "finescale", "cli")


@dataclasses.dataclass
class Span:
    kind: str
    start: float
    end: float
    parent: int | None
    op: int
    attrs: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


def _points(args, kwargs, result):
    pts = args[1] if len(args) > 1 else kwargs.get("points")
    shape = getattr(pts, "shape", None)
    return {"points": int(shape[0]) if shape and len(shape) == 2 else 1}


def _cg(args, kwargs, result):
    system = args[0] if args else kwargs["system"]
    matrix = system.matrix
    return {"iterations": int(result.iterations), "residual": float(result.residual),
            "n": int(system.dimension), "nnz": int(matrix.nnz),
            "index_bytes": int(matrix.indices.dtype.itemsize)}


def _cg_error(args, kwargs, exc):
    return {"iterations": int(getattr(exc, "iterations", 0)),
            "residual": float(getattr(exc, "residual", float("nan"))),
            "failed": 1}


def _solution(args, kwargs, result):
    return {"iterations": int(result.iterations), "residual": float(result.residual),
            "energy": float(result.energy), "source_work": float(result.source_work)}


@dataclasses.dataclass(frozen=True)
class Target:
    """One wrapped call site: ``owner`` is ``module`` or ``module:Class``."""

    layer: str
    kind: str
    owner: str
    attr: str
    record: object = None
    record_error: object = None
    site: str = ""


TARGETS = (
    Target("coefficients", "coefficients.evaluate",
           "maphom.coefficients:PeriodicCoefficient", "evaluate", _points),
    Target("coefficients", "coefficients.evaluate",
           "maphom.coefficients:PeriodicCoefficient", "__call__", _points),
    Target("structure", "structure.map", "maphom.structure:QuadraticStretchMap", "__call__"),
    Target("structure", "structure.map", "maphom.structure:LinearScaleMap", "__call__"),
    Target("numerics", "numerics.assemble", "maphom.cell", "assemble_diffusion"),
    Target("numerics", "numerics.assemble", "maphom.cell", "assemble_gradient_load"),
    Target("numerics", "numerics.assemble", "maphom.finescale", "assemble_diffusion"),
    Target("numerics", "numerics.assemble", "maphom.finescale", "assemble_source_load"),
    Target("numerics", "numerics.finalize", "maphom.numerics:SparseSystem", "finalize"),
    Target("numerics", "numerics.cg", "maphom.cell", "cg_solve", _cg, _cg_error, "cell"),
    Target("numerics", "numerics.cg", "maphom.finescale", "cg_solve", _cg, _cg_error,
           "finescale"),
    Target("cell", "cell.solve_corrector", "maphom.cell", "solve_corrector"),
    Target("cell", "cell.solve_corrector", "maphom.homogenize", "solve_corrector"),
    Target("homogenize", "homogenize.tensor_field", "maphom.cli", "tensor_field"),
    Target("homogenize", "homogenize.matrix", "maphom.homogenize", "homogenized_matrix_at"),
    Target("finescale", "finescale.study", "maphom.cli", "convergence_study"),
    Target("finescale", "finescale.solve", "maphom.finescale", "solve_oscillatory", _solution),
    Target("finescale", "finescale.solve", "maphom.finescale", "solve_homogenized", _solution),
    Target("finescale", "finescale.l2_error", "maphom.finescale", "l2_error"),
    Target("cli", "cli.main", "maphom.cli", "main"),
    Target("cli", "cli.write", "maphom.cli", "write_tensor_csv"),
    Target("cli", "cli.write", "maphom.cli:RunManifest", "write"),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


class Tracer:
    """Records spans for the wrapped call sites while installed.

    ``install`` swaps every target that exists for a recording wrapper and
    remembers the original; ``uninstall`` puts the originals back, so an
    untraced pass runs the package's own functions. Targets that do not
    exist are listed in ``absent`` instead of failing the run.
    """

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.op = 0
        self._stack: list[int] = []
        self._paused = False
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        self.absent = []
        for target in self.targets:
            owner = _resolve(target.owner)
            original = getattr(owner, target.attr, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{target.owner}.{target.attr}")
                continue
            self._originals.append((owner, target.attr, original))
            setattr(owner, target.attr, self._wrap(target, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals = []

    def absent_layers(self) -> list[str]:
        """Layers none of whose call sites exist in the traced package."""
        present = {t.layer for t in self.targets
                   if f"{t.owner}.{t.attr}" not in self.absent}
        return [layer for layer in LAYERS if layer not in present]

    def _wrap(self, target: Target, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return original(*args, **kwargs)
            if target.kind == "finescale.study" and kwargs.get("on_row") is not None:
                kwargs["on_row"] = tracer._wrap(
                    Target("cli", "cli.write", "", "on_row"), kwargs["on_row"])
            span = Span(target.kind, 0.0, 0.0,
                        tracer._stack[-1] if tracer._stack else None, tracer.op, {})
            if target.site:
                span.attrs["site"] = target.site
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if target.record_error is not None:
                    span.attrs.update(tracer._read(target.record_error, args, kwargs, exc))
                raise
            span.end = time.perf_counter()
            tracer._stack.pop()
            if target.record is not None:
                span.attrs.update(tracer._read(target.record, args, kwargs, result))
            return result

        return wrapper

    def _read(self, record, args, kwargs, value) -> dict:
        # attribute readers may call wrapped functions (SparseSystem.matrix
        # calls finalize); those calls are not part of the traced work
        self._paused = True
        try:
            return record(args, kwargs, value)
        finally:
            self._paused = False


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def cg_bytes_per_iteration(n: int, nnz: int, index_bytes: int) -> float:
    """Computed (not measured) memory traffic of one Jacobi-CG iteration.

    The sparse product streams the CSR values (8 bytes), column indices
    and row pointers once, reads p and writes A p. The vector updates of
    one iteration (p.Ap, x, r, |r|, z, r.z, p) stream eight more length-n
    float64 vectors.
    """
    spmv = nnz * (8 + index_bytes) + (n + 1) * index_bytes + 2 * 8 * n
    return float(spmv + 8 * 8 * n)


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass lasting ``wall_s`` seconds."""
    selfs = self_times(spans)
    by_kind: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_kind.setdefault(s.kind, []).append(i)

    def idx(*kinds):
        return [i for k in kinds for i in by_kind.get(k, [])]

    def self_s(*kinds):
        return float(sum(selfs[i] for i in idx(*kinds)))

    cg = [spans[i] for i in idx("numerics.cg")]
    cg_iters = sum(s.attrs.get("iterations", 0) for s in cg)
    cg_s = self_s("numerics.cg")
    cg_bytes = sum(
        cg_bytes_per_iteration(s.attrs["n"], s.attrs["nnz"], s.attrs["index_bytes"])
        * s.attrs["iterations"] for s in cg if "nnz" in s.attrs)
    solves = [spans[i] for i in idx("finescale.solve")]
    top = sum(s.attrs.get("iterations", 0) for s in solves)
    dirichlet = sum(s.attrs.get("iterations", 0) for s in cg
                    if s.attrs.get("site") == "finescale")
    gaps = [abs(s.attrs["energy"] - s.attrs["source_work"]) / abs(s.attrs["source_work"])
            for s in solves if s.attrs.get("source_work")]
    evaluate = [spans[i] for i in idx("coefficients.evaluate")]

    metrics = {
        "coefficients.evaluate_calls": len(evaluate),
        "coefficients.evaluate_points": sum(s.attrs.get("points", 0) for s in evaluate),
        "coefficients.evaluate_s": self_s("coefficients.evaluate"),
        "structure.map_s": self_s("structure.map"),
        "numerics.assemble_calls": len(idx("numerics.assemble")),
        "numerics.assemble_s": self_s("numerics.assemble", "numerics.finalize"),
        "numerics.cg_calls": len(cg),
        "numerics.cg_iterations": cg_iters,
        "numerics.cg_iterations_max": max((s.attrs.get("iterations", 0) for s in cg),
                                          default=0),
        "numerics.cg_s": cg_s,
        "numerics.cg_s_per_iteration": cg_s / cg_iters if cg_iters else 0.0,
        "numerics.cg_bytes_per_iteration": cg_bytes / cg_iters if cg_iters else 0.0,
        "numerics.cg_residual_max": max((s.attrs.get("residual", 0.0) for s in cg),
                                        default=0.0),
        "numerics.cg_failed": sum(s.attrs.get("failed", 0) for s in cg),
        "cell.corrector_pairs": len(idx("cell.solve_corrector")),
        "cell.self_s": self_s("cell.solve_corrector"),
        "homogenize.matrix_calls": len(idx("homogenize.matrix")),
        "homogenize.matrix_s": float(sum(spans[i].duration
                                         for i in idx("homogenize.matrix"))),
        "homogenize.self_s": self_s("homogenize.tensor_field", "homogenize.matrix"),
        "finescale.solves": len(solves),
        "finescale.top_iterations": top,
        "finescale.coarse_iterations": dirichlet - top,
        # 0 when the pass made no Dirichlet solve
        "finescale.useful_iteration_share": top / dirichlet if dirichlet else 0.0,
        "finescale.energy_gap_max": max(gaps, default=0.0),
        "finescale.self_s": self_s("finescale.study", "finescale.solve",
                                   "finescale.l2_error"),
        "cli.write_s": self_s("cli.write"),
        "cli.self_s": self_s("cli.main"),
    }
    metrics["other_s"] = wall_s - float(sum(selfs))
    return metrics
