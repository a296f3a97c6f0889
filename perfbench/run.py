"""quatcohom benchmark: closed-loop workloads timed end to end and per layer.

    python3 perfbench/run.py --workload corpus-cli --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45

One caller in one thread starts each op after the previous one returns.
A run sets up its inputs several times (the median is ``setup_s``), then
repeats whole passes over the workload's ops while a further pass is
expected to end within ``--seconds``, and at least the workload's
``MIN_PASSES``; the op metrics come from the fastest pass.
With ``--trace 1`` it instead runs one pass untraced and the same pass
traced, and reports per-layer metrics.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in its own process and prints one
row per workload.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

sys.path.insert(0, str(SRC))

import tracer  # noqa: E402  (run.py's directory is on sys.path)
import workloads  # noqa: E402

SETUP_REPEATS = 7
KERNEL_SAMPLES = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}


def set_up(workload: str, seed: int) -> Tuple[float, List[workloads.Op]]:
    """Import quatcohom afresh and build the workload's ops; return the time."""
    for name in [m for m in sys.modules if m == "quatcohom" or m.startswith("quatcohom.")]:
        del sys.modules[name]
    start = perf_counter()
    importlib.import_module("quatcohom")
    importlib.import_module("quatcohom.cli")
    ops = workloads.BUILDERS[workload](seed, STATE / "work")
    return perf_counter() - start, ops


def run_pass(ops: List[workloads.Op],
             trace: Optional[tracer.Tracer] = None) -> Tuple[List[float], List[str]]:
    """Time each op; check its output afterwards, outside the timed part."""
    times: List[float] = []
    errors: List[str] = []
    shared: Dict = {}
    for index, op in enumerate(ops):
        if trace is not None:
            trace.op = index
        start = perf_counter()
        try:
            result = op.run()
        except Exception:  # an op that raises is counted, and the run goes on
            times.append(perf_counter() - start)
            errors.append(f"{op.label}: raised\n{traceback.format_exc()}")
            continue
        times.append(perf_counter() - start)
        try:
            error = op.check(result, shared)
        except Exception:  # a malformed output is an oracle failure
            error = f"oracle raised\n{traceback.format_exc()}"
        if error:
            errors.append(f"{op.label}: {error}")
    return times, errors


def tail(times: List[float]) -> Tuple[float, int]:
    """Highest percentile with at least ten samples above it, and its rank.

    Below 21 samples that percentile would lie under the median, so the
    median is reported instead.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50
    return ordered[n - 11], (100 * (n - 10)) // n


def fraction_kernel_ms() -> List[float]:
    """A fixed stdlib Fraction loop, timed as a reading of machine noise."""
    samples = []
    for _ in range(KERNEL_SAMPLES):
        start = perf_counter()
        acc = Fraction(0)
        for k in range(1, 2000):
            acc += Fraction(k, k + 1) * Fraction(k + 2, 2 * k + 1)
        samples.append((perf_counter() - start) * 1e3)
    return samples


def run_context() -> dict:
    kernel = fraction_kernel_ms()
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "fraction_kernel_ms": {
            "median": round(statistics.median(kernel), 3),
            "min": round(min(kernel), 3),
            "max": round(max(kernel), 3),
            "samples": len(kernel),
        },
    }


def source_digest() -> str:
    """Digest of the package and benchmark sources; keys the count records."""
    h = hashlib.sha256()
    for path in sorted(list((SRC / "quatcohom").rglob("*.py"))
                       + list((SRC / "quatcohom").rglob("*.json"))
                       + list(HERE.glob("*.py")) + list(HERE.glob("*.json"))):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_counts(workload: str, seed: int, counts: Dict[str, int]) -> str:
    """Compare the counts with an earlier traced run of this seed and code."""
    record = STATE / f"counts-{workload}-seed{seed}-{source_digest()}.json"
    if record.exists():
        earlier = json.loads(record.read_text(encoding="utf-8"))
        if earlier != counts:
            return f"counts {counts} differ from an earlier run's {earlier}"
        return ""
    record.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")
    return ""


def timed(args, ops: List[workloads.Op], setup_times: List[float]) -> Tuple[dict, int, List[str]]:
    """Repeat passes; the op metrics come from the pass with the least op time.

    A shared host slows for stretches of seconds to minutes, so the fastest
    of a run's identical passes varies far less from run to run than their
    mean (the best of several repeats, as ``timeit`` reports).  Every pass
    is checked, and every failure counts.
    """
    passes: List[List[float]] = []
    errors: List[str] = []
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        pass_times, pass_errors = run_pass(ops)
        passes.append(pass_times)
        errors += pass_errors
        now = perf_counter()
        if (len(passes) >= workloads.MIN_PASSES[args.workload]
                and now - start + (now - pass_start) > args.seconds):
            break
    best = min(passes, key=sum)
    attempted = sum(len(times) for times in passes)
    tail_value, tail_pct = tail(best)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(best) / sum(best),
        "op_p50_s": statistics.median(best),
        "op_tail_s": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"ops {attempted}  op seconds per pass "
          + " ".join(f"{sum(times):.3f}" for times in passes))
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "ops_per_s": f"fastest of {len(passes)} passes",
        "op_p50_s": f"over the fastest pass's {len(best)} ops",
        "op_tail_s": f"p{tail_pct} of the fastest pass's {len(best)} ops",
    }
    for name, value in metrics.items():
        print(f"  {name:<12} {value:12.6g} {END_TO_END_UNITS[name]:<4} {notes.get(name, '')}")
    print(f"  {'error_rate':<12} {len(errors) / attempted:12.6g}      "
          f"{len(errors)} of {attempted} ops failed")
    return ({k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
            attempted, errors)


def traced(args, ops: List[workloads.Op]) -> Tuple[dict, int, List[str], bool]:
    start = perf_counter()
    plain_times, errors = run_pass(ops)
    untraced_s = perf_counter() - start

    recorder = tracer.Tracer()
    with recorder.installed():
        start = perf_counter()
        times, traced_errors = run_pass(ops, recorder)
        traced_s = perf_counter() - start
    errors += traced_errors

    values = recorder.layer_metrics()
    values["tracing_overhead_s"] = traced_s - untraced_s
    counts = {name: values[name] for name in tracer.REPEATABLE_COUNTS}
    mismatch = check_counts(args.workload, args.seed, counts)
    if mismatch:
        print("FAILED " + mismatch, file=sys.stderr)

    spans_file = STATE / f"trace-{args.workload}-seed{args.seed}.jsonl"
    with open(spans_file, "w", encoding="utf-8") as handle:
        for record in recorder.span_records():
            handle.write(json.dumps(record) + "\n")

    units = {name: unit for name, (unit, _, _) in tracer.LAYER_METRICS.items()}
    units["tracing_overhead_s"] = "s"
    print(f"workload {args.workload}  seed {args.seed}  traced  ops {len(times)}  "
          f"spans {len(recorder.spans)} -> {spans_file.relative_to(ROOT)}")
    for name, value in values.items():
        print(f"  {name:<28} {value:14.6g} {units[name]}")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return metrics, len(plain_times) + len(times), errors, not mismatch


def run_all(args) -> int:
    """Each workload in its own process, one row of end-to-end metrics each."""
    rows = []
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{workload}: exit code {proc.returncode}")
            return 1
        result = json.loads(lines[-1])
        rows.append((workload, result))
    for workload, result in rows:
        cells = [f"{name}={m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
        cells.append(f"error_rate={result['failed'] / result['attempted']:.6g} "
                     f"({result['failed']}/{result['attempted']})")
        print(f"{workload:<14} " + "  ".join(cells))
    return 0 if all(r["correct"] for _, r in rows) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "quatcohom" / "__init__.py").is_file():
        print(f"error: no quatcohom sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    STATE.mkdir(parents=True, exist_ok=True)
    repeats = 1 if args.trace else SETUP_REPEATS
    setup_times = []
    for _ in range(repeats):
        elapsed, ops = set_up(args.workload, args.seed)
        setup_times.append(elapsed)
    gc.collect()
    print("context " + json.dumps(run_context(), sort_keys=True))

    counts_repeat = True
    if args.trace:
        metrics, attempted, errors, counts_repeat = traced(args, ops)
    else:
        metrics, attempted, errors = timed(args, ops, setup_times)
    for error in errors:
        print("FAILED " + error, file=sys.stderr)
    print(json.dumps({
        "correct": not errors and counts_repeat,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
