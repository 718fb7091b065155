"""maphom benchmark: run one workload, or all of them, and print the metrics.

    python3 perfbench/run.py --workload tensor_sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, each in its own process

Run from the repository root; the package is imported from ``src/``. One
workload runs in this process with BLAS pinned to one thread. Set-up is
timed in fresh probe processes that import the package, build the
workload's inputs and run its warm-up; ``setup_s`` is the median of their
CPU times. Timed passes then repeat until ``--seconds`` is used up (at
least ``MIN_PASSES``); ``cpu_s`` is the median CPU time of a pass. Both
are scaled to the nominal speed of a fixed reference kernel sampled
around what was timed (``reference.py``), because a shared host's speed
drifts by a third over minutes; raw and wall times are kept in the
result file. With ``--trace 0`` the last line of standard output is
the end-to-end result; with ``--trace 1`` passes alternate untraced and
traced and the last line holds the per-layer metrics. Full results, the
machine context and the spans are written under ``.bench_build/perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("tensor_sweep", "fine_scale", "cell_point")
MIN_PASSES = 2
SETUP_PROBES = 3
# reference kernel samples taken at each mark: around every set-up probe,
# every timed pass and every operation within a pass
REFERENCE_SAMPLES = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "coefficients.evaluate_calls": "count",
    "coefficients.evaluate_points": "count",
    "coefficients.evaluate_s": "s",
    "structure.map_s": "s",
    "numerics.assemble_calls": "count",
    "numerics.assemble_s": "s",
    "numerics.cg_calls": "count",
    "numerics.cg_iterations": "count",
    "numerics.cg_iterations_max": "count",
    "numerics.cg_s": "s",
    "numerics.cg_s_per_iteration": "s",
    "numerics.cg_bytes_per_iteration": "B-computed",
    "numerics.cg_residual_max": "rel",
    "numerics.cg_failed": "count",
    "cell.corrector_pairs": "count",
    "cell.self_s": "s",
    "homogenize.matrix_calls": "count",
    "homogenize.matrix_s": "s",
    "homogenize.self_s": "s",
    "finescale.solves": "count",
    "finescale.top_iterations": "count",
    "finescale.coarse_iterations": "count",
    "finescale.useful_iteration_share": "ratio",
    "finescale.energy_gap_max": "rel",
    "finescale.self_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "B",
    "cli.self_s": "s",
    "other_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up the workload and exit (used to time set-up)")
    return p.parse_args(argv)


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def time_setup(args, ref) -> list[dict]:
    """Fresh processes that set the workload up and exit: their CPU time,
    raw and scaled by the reference samples taken before and after each,
    and their wall time."""
    import reference

    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    probes = []
    before = ref.sample(REFERENCE_SAMPLES)
    for _ in range(SETUP_PROBES):
        start, cpu_start = time.perf_counter(), _children_cpu()
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL)
        wall, cpu = time.perf_counter() - start, _children_cpu() - cpu_start
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe exited with code {done.returncode}")
        after = ref.sample(REFERENCE_SAMPLES)
        probes.append({"cpu_s": cpu, "scaled_cpu_s": cpu * reference.scale(before + after),
                       "wall_s": wall})
        before = after
    return probes


def set_up(name: str, seed: int, work_dir: Path):
    """Import the package, build the workload and run its warm-up pass."""
    import workloads

    workloads.make(name, seed, workloads.SMOKE, work_dir).run_pass()
    return workloads.make(name, seed, workloads.FULL, work_dir)


def run_passes(workload, seconds: float, trace: bool, tracer, ref=None):
    """Timed passes until ``seconds`` are used; traced ones alternate if asked.

    With a reference ``ref``, its kernel is sampled before the first pass,
    between the operations of a pass and after each pass, and each pass
    records its CPU time scaled operation by operation (``scaled_cpu_s``).
    The samples' own time is left out of ``cpu_s`` but not of ``wall_s``.
    """
    import reference
    import tracing

    passes = []
    deadline = time.perf_counter() + seconds
    clock = reference.Clock(ref, REFERENCE_SAMPLES) if ref is not None else None
    if clock:
        clock.mark()
    ops_begun = 0

    def begin_op():
        nonlocal ops_begun
        tracer.op += 1
        ops_begun += 1
        if clock and ops_begun > 1:
            clock.mark()

    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.spans = []
            tracer.install()
        ops_begun = 0
        try:
            start, cpu_start = time.perf_counter(), time.process_time()
            if clock:
                clock.restart()
            ops = workload.run_pass(begin_op)
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu_start
        finally:
            if traced:
                tracer.uninstall()
        scaled = None
        if clock:
            clock.mark()
            cpu, scaled = clock.raw_s, clock.scaled_s
        step = time.perf_counter() - start
        record = {"traced": traced, "wall_s": wall, "cpu_s": cpu, "scaled_cpu_s": scaled,
                  "step_s": step, "ops": ops}
        if traced:
            record["layers"] = tracing.layer_metrics(tracer.spans, wall)
            record["layers"]["cli.bytes_written"] = sum(op.bytes_written for op in ops)
            record["spans"] = tracer.spans
        passes.append(record)
        longest = max(p["step_s"] for p in passes)
        if len(passes) >= MIN_PASSES and time.perf_counter() + longest > deadline:
            return passes


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_one(args) -> int:
    import machine
    import reference
    import tracing

    ref = None if args.trace else reference.Reference()
    probes = time_setup(args, ref) if ref else []
    OUT.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        start = time.perf_counter()
        workload = set_up(args.workload, args.seed, work_dir)
        in_process_setup = time.perf_counter() - start
        tracer = tracing.Tracer()
        passes = run_passes(workload, args.seconds, bool(args.trace), tracer, ref)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if not op.ok]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    raw = {}
    if args.trace:
        layers = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - statistics.median(p["wall_s"] for p in plain))
        metrics = {name: _metric(layers[name], unit)
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        raw = {"cpu_s": statistics.median(p["cpu_s"] for p in plain),
               "setup_s": statistics.median(p["cpu_s"] for p in probes)}
        values = {"cpu_s": statistics.median(p["scaled_cpu_s"] for p in plain),
                  "setup_s": statistics.median(p["scaled_cpu_s"] for p in probes),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: _metric(values[name], unit)
                   for name, unit in END_TO_END_UNITS.items()}

    context = machine.context(ROOT)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": context,
        "raw_cpu_s": raw,
        "reference_samples_s": ref.samples if ref else [],
        "setup_probes": probes,
        "in_process_setup_s": in_process_setup,
        "passes": [{"traced": p["traced"], "wall_s": p["wall_s"], "cpu_s": p["cpu_s"],
                    "scaled_cpu_s": p["scaled_cpu_s"],
                    "ops": [vars(op) for op in p["ops"]]} for p in passes],
        "absent_call_sites": tracer.absent,
        "absent_layers": tracer.absent_layers() if args.trace else [],
        "metrics": metrics,
    }
    with open(OUT / f"result-{tag}.json", "w") as f:
        json.dump(details, f, indent=1)
    if args.trace:
        spans = [dict(vars(s), pass_index=i) for i, p in enumerate(passes)
                 if p["traced"] for s in p["spans"]]
        with open(OUT / f"trace-{tag}.json", "w") as f:
            json.dump(spans, f)

    print(f"# workload {args.workload}, seed {args.seed}, "
          f"{len(passes)} passes: "
          + ", ".join(f"{p['wall_s']:.3f}" for p in passes) + " s wall, "
          + ", ".join(f"{p['cpu_s']:.3f}" for p in passes) + " s CPU"
          + ("" if args.trace else ", " + ", ".join(
              f"{p['scaled_cpu_s']:.3f}" for p in passes) + " s scaled CPU"))
    print("# machine " + json.dumps(context, sort_keys=True))
    if args.trace and details["absent_layers"]:
        print(f"# absent layers: {', '.join(details['absent_layers'])}")
    for op in failed:
        print(f"# failed operation: {op.note}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; a combined last line."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exited with code {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:36s} {m['value']:14.6g} {m['unit']}")
            total["metrics"][f"{name}.{metric}"] = m
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "maphom" / "__init__.py").is_file():
        print(f"maphom sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for key in BLAS_ENV:
        os.environ[key] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        OUT.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            set_up(args.workload, args.seed, Path(tmp))
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
