"""Regenerate ``cell_point_reference.json``, the cell_point reference table.

Solves every x2 value a seed can draw (see ``workloads.cell_point_indices``)
at the benchmark's cell resolution and at the smoke test's, and stores B
with full precision. Run from the repository root:

    python3 perfbench/make_reference.py

Regenerate only when the expected B changes on purpose; the table is what
the benchmark checks new code against.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import machine
    import workloads as w

    coefficient = w.maphom.coefficients.sine_product(w.CELL_AMPLITUDE)
    table = {}
    for cells in sorted({w.FULL.point_cells, w.SMOKE.point_cells}):
        rows = {}
        for i in w.cell_point_pool():
            x2 = float(w.CELL_GRID[i])
            B, corr = w.cell_point_matrix(coefficient, x2, cells)
            rows[repr(x2)] = {"B": B.tolist(), "iterations": list(corr.iterations)}
            print(f"{cells}^2 cells, x2 = {x2:.5f}: iterations {corr.iterations}",
                  flush=True)
        table[str(cells)] = rows
    payload = {
        "amplitude": w.CELL_AMPLITUDE,
        "cg_tol": w.CG_TOL,
        "git_commit": machine.git_commit(ROOT),
        "resolutions": table,
    }
    with open(w.REFERENCE_PATH, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
