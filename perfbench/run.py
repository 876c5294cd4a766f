"""Benchmark of the schoolsim ablation matrix, end to end and per layer.

Run from the repository root, for example:

    python3 perfbench/run.py --workload matrix --seed 0 --seconds 25 --trace 0

``--workload`` is one of matrix, matrix_inmem, score_cjk and resume (see
perfbench/README.md), or ``all``, which runs the four in turn in this process,
each once untraced and once traced, and so prints every metric.

With ``--trace 0`` the workload is timed with tracing off and the last line
of output is one JSON object holding the end-to-end metrics named in
BENCHMARK.json. With ``--trace 1`` untraced and traced iterations alternate;
the JSON object holds the per-layer metrics of the traced ones and the
tracing overhead, and the spans are written to .bench_out/traces/. Every run
writes a result file with its environment under .bench_out/results/; compare
two sets of them with perfbench/compare.py. The exit code is 1 when an
operation or a correctness check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("matrix", "matrix_inmem", "score_cjk", "resume")
MIN_ITERATIONS = 3
# Set-up is repeated and its median reported. Repeats run between the
# iterations, so that they sample the same stretch of time as the iterations
# do rather than a moment before it; resume's set-up runs nearly the whole
# checkpointed matrix, so it is repeated less often.
SETUP_REPEATS = {"matrix": 5, "matrix_inmem": 5, "score_cjk": 5, "resume": 3}


def import_package() -> None:
    """Put the checkout's own sources first on the path, or exit."""
    src = ROOT / "src"
    if not (src / "schoolsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no schoolsim sources under {src}")
    sys.path.insert(0, str(src))
    import schoolsim

    if Path(schoolsim.__file__).resolve().parent != (src / "schoolsim").resolve():
        raise SystemExit(f"perfbench: imported schoolsim from {schoolsim.__file__}")


def environment(seed: int) -> dict:
    import numpy
    from schoolsim import _kernels

    return {
        "kernel_backend": _kernels.active_backend(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _rate(count: int, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, expected: dict) -> dict:
    import spans
    import workloads

    ledger = workloads.Ledger()
    work = OUT / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = spans.Tracer() if trace else None
    setup_s = []

    def set_up() -> None:
        target = work / f"setup-{len(setup_s)}"
        started = time.perf_counter()
        workload.setup(target)
        setup_s.append(time.perf_counter() - started)
        shutil.rmtree(work / f"setup-{len(setup_s) - 2}", ignore_errors=True)

    try:
        workload = workloads.WORKLOADS[name](seed, work, ledger, expected)
        if tracer:
            mark = tracer.mark()
            with tracer.installed():
                set_up()
            setup_totals = tracer.totals(mark)
        else:
            set_up()

        untraced = []
        traced = []
        layers = []
        started = time.perf_counter()
        while True:
            sample = workload.iterate(len(untraced) + len(traced), lambda run_id: None)
            workload.record(sample)
            untraced.append(sample)
            if tracer:
                mark = tracer.mark()
                with tracer.installed():
                    sample = workload.iterate(len(untraced) + len(traced), tracer.set_run)
                layers.append(spans.layer_metrics(*tracer.totals(mark)))
                workload.record(sample)
                traced.append(sample)
            elif len(setup_s) < SETUP_REPEATS[name]:
                set_up()
            # Stop before a pass that would end past the measuring window.
            elapsed = time.perf_counter() - started
            if len(untraced) >= MIN_ITERATIONS and elapsed * (1 + 1 / len(untraced)) > seconds:
                break
        while not tracer and len(setup_s) < SETUP_REPEATS[name]:
            set_up()
        workload.verify()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    metrics = {
        "wall_s": _median([s.wall_s for s in untraced]),
        "setup_s": _median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    # Not gated in BENCHMARK.json, because each is zero or undefined on some
    # workload; printed and kept in the result file.
    derived = {
        "steps_per_s": _median([_rate(s.steps, s.sim_s) for s in untraced if s.steps]),
        "pairs_per_s": _median([_rate(s.pairs, s.score_s) for s in untraced if s.pairs]),
        "written_mb": _median([s.written_bytes / 1e6 for s in untraced]),
        "fail_ratio": ledger.failed / max(ledger.attempted, 1),
    }
    if tracer:
        metrics = {key: _median([layer[key] for layer in layers]) for key in layers[0]}
        metrics["dataset.load_s"] = setup_totals[1]["dataset.load"]  # self time
        metrics["trace.wall_s"] = _median([s.wall_s for s in traced])
        metrics["trace.untraced_wall_s"] = _median([s.wall_s for s in untraced])
        metrics["trace.overhead"] = metrics["trace.wall_s"] / metrics["trace.untraced_wall_s"] - 1
        tracer.write(OUT / "traces" / f"{name}-seed{seed}-{stamp}.jsonl")
    return {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "environment": environment(seed),
        "metrics": metrics,
        "derived": derived,
        "iterations_wall_s": [s.wall_s for s in untraced],
        "setup_runs_s": setup_s,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
        "stamp": stamp,
    }


DERIVED_UNITS = {"steps_per_s": "1/s", "pairs_per_s": "1/s", "written_mb": "MB", "fail_ratio": "ratio"}


def report(result: dict, spec: dict) -> dict:
    """Print one result; return its metrics as the JSON line carries them."""
    listed = spec["per_layer" if result["trace"] else "end_to_end"]
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in listed}
    env = result["environment"]
    print(
        f"# workload {result['workload']} trace {result['trace']} seed {env['seed']} "
        f"backend {env['kernel_backend']} python {env['python']} numpy {env['numpy']} "
        f"nproc {env['nproc']} iterations {len(result['iterations_wall_s'])}"
    )
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    if not result["trace"]:
        for name, value in result["derived"].items():
            print(f"{name} {value:.6g} {DERIVED_UNITS[name]}")
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    path = OUT / "results" / f"{result['workload']}-seed{env['seed']}-trace{result['trace']}-{result['stamp']}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    import_package()

    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOAD_NAMES for trace in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    results = []
    try:
        for name, trace in runs:
            results.append(run_workload(name, args.seed, args.seconds, trace, expected))
    except Exception:
        traceback.print_exc()
        return 1
    metrics = {}
    for result in results:
        for name, metric in report(result, spec).items():
            key = name if len(results) == 1 else f"{result['workload']}.{name}"
            metrics[key] = metric
    failed = sum(r["failed"] for r in results)
    line = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
