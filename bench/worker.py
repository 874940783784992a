"""One benchmark run in its own process: set-up, warm-up, the timed closed
loop, and the metrics. ``run.py`` starts it with pinned thread counts and
reads the JSON object it prints.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE TINY

Before numpy loads, the process caps its own address space at AS_LIMIT_MB,
so an oversized allocation raises MemoryError inside one pair (counted as a
failed pair) instead of exhausting the host, and pins BLAS to one thread, so
that with the workload's AFFGEO_THREADS pool it never runs more compute
threads than the host's two cores.
"""

from __future__ import annotations

import os
import resource

AS_LIMIT_MB = 2048
resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT_MB << 20, AS_LIMIT_MB << 20))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import affgeo  # noqa: E402

if Path(affgeo.__file__).resolve().parent != ROOT / "src" / "affgeo":
    sys.exit(f"affgeo imported from {affgeo.__file__}, not from this checkout")

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5


def main(argv: list[str]) -> None:
    name, seed, seconds, trace, tiny = argv
    workload = workloads.WORKLOADS[name]
    seed, seconds, trace, tiny = int(seed), float(seconds), trace == "1", tiny == "1"
    # affgeo.parallel reads the variable on every call.
    os.environ.pop("AFFGEO_THREADS", None)
    if workload.affgeo_threads is not None:
        os.environ["AFFGEO_THREADS"] = workload.affgeo_threads
    result = {"host": host_facts()}
    if trace:
        result.update(traced_run(workload, seed, seconds, tiny))
    else:
        result.update(timed_run(workload, seed, seconds, tiny))
    print(json.dumps(result))


# --- runs -------------------------------------------------------------------


def timed_run(workload, seed: int, seconds: float, tiny: bool) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        pool = None  # drop the previous pool, so two never coexist
        start = time.perf_counter()
        pool = workloads.build_pool(workload, seed, tiny)
        setups.append(time.perf_counter() - start)
    warm_up(workload, pool)
    runs, elapsed = closed_loop(workload, pool, seconds)
    out = evaluate(workload, pool, runs)
    latencies = sorted(r[2] for r in runs)
    tail_value, tail_pct = tail(latencies)
    best = best_times(runs)
    out["metrics"].update(
        setup_s=statistics.median(setups),
        pairs_per_s=len(best) / sum(best),
        latency_p50_ms=1e3 * statistics.median(best),
        latency_tail_ms=1e3 * tail_value,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    out["extra"]["wall_pairs_per_s"] = [len(runs) / elapsed, "1/s"]
    out["tail"] = {"percentile": tail_pct, "samples": len(latencies)}
    out["passes"] = len(runs) / len(pool)
    out["setup_runs_s"] = setups
    return out


def traced_run(workload, seed: int, seconds: float, tiny: bool) -> dict:
    """Runs every pair twice in a row, untraced then traced, until one full
    pass is done and the time is up. The traced runs give the per-layer
    metrics; the pairing, with the same input and no time between the two,
    gives the tracing overhead; and both halves must produce the same
    outputs."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pool = workloads.build_pool(workload, seed, tiny)
    finally:
        tracer.uninstall()
    warm_up(workload, pool)
    plain, traced = [], []
    start = time.perf_counter()
    while len(traced) < len(pool) or time.perf_counter() - start < seconds:
        pair = pool[len(traced) % len(pool)]
        plain.append(run_timed(workload, pair))
        tracer.install()
        try:
            tracer.pair = len(traced)
            traced.append(run_timed(workload, pair, tracer))
        finally:
            tracer.uninstall()
    out = evaluate(workload, pool, traced)
    untraced_digest = evaluate(workload, pool, plain)["digest"]
    if untraced_digest != out["digest"]:
        out["problems"].append(f"untraced runs gave digest {untraced_digest}")
    overhead = 1.0 - sum(r[2] for r in plain) / sum(r[2] for r in traced)
    out["metrics"] = tracing.layer_metrics(tracer.spans, overhead)
    out["shares"] = tracing.self_shares(tracer.spans)
    trace_path = Path(workloads.work_dir(workload, tiny)) / f"trace-seed{seed}.json"
    tracer.write(trace_path)
    out["trace_file"] = str(trace_path)
    return out


def warm_up(workload, pool) -> None:
    """One untimed pair, so lazy initialisation is not timed. A failure here
    shows again, and is counted, in the loop."""
    try:
        workloads.run_pair(workload, pool[0])
    except Exception:
        pass


def run_timed(workload, pair, tracer=None):
    """One pair: (pool index, output or the exception raised, seconds)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            output = workloads.run_pair(workload, pair)
        else:
            with tracer.span("pair", pool_index=pair.index):
                output = workloads.run_pair(workload, pair)
    except Exception as exc:  # every failure is counted, the loop goes on
        output = exc
    return pair.index, output, time.perf_counter() - t0


def closed_loop(workload, pool, seconds: float):
    """Runs pool pairs back to back, cycling through the pool, until one full
    pass is done and ``seconds`` have passed. Returns the runs and the wall
    time."""
    runs = []
    start = time.perf_counter()
    while len(runs) < len(pool) or time.perf_counter() - start < seconds:
        runs.append(run_timed(workload, pool[len(runs) % len(pool)]))
    return runs, time.perf_counter() - start


def evaluate(workload, pool, runs) -> dict:
    """Failures, quality metrics and the output digest of a loop's runs.

    The digest covers the first output of every pool pair in pool order; a
    later run of the same pair must reproduce that output's text."""
    first: dict[int, str] = {}
    verdict: dict[int, dict] = {}
    problems: list[str] = []
    failed = 0
    for index, output, _ in runs:
        pair = pool[index]
        if isinstance(output, Exception):
            text = f"error {type(output).__name__}: {output}"
            ok = False
        else:
            text = workloads.output_text(workload, pair, output)
            if index not in verdict:
                verdict[index] = workloads.quality(workload, pair, output)
            ok = verdict[index]["ok"]
        if first.setdefault(index, text) != text:
            problems.append(f"pair {index} changed its output between runs")
        failed += not ok
    quality = list(verdict.values())
    metrics = {"inlier_f1": statistics.fmean(q["inlier_f1"] for q in quality) if quality else 0.0}
    # Reported by name and unit next to the metrics of BENCHMARK.json, which
    # cannot hold them: failed_frac is 0 when all is well, and the error
    # against ground truth has another meaning and unit on each kind.
    extra = {"failed_frac": [failed / len(runs), "ratio"]}
    if quality:
        name, unit = workloads.ERROR_METRIC[workload.kind]
        extra[name] = [statistics.median(q["err"] for q in quality), unit]
    return {
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
        "extra": extra,
        "digest": workloads.digest([first[i] for i in sorted(first)]),
        "problems": problems,
    }


def best_times(runs) -> list[float]:
    """Each pool pair's shortest time over its runs in the loop.

    On a shared host, other tenants slow single runs by up to half, mostly
    in bursts shorter than a second that come and go within a run, so the
    shortest of a pair's runs moves far less than any one run. The median and
    the rate are taken over these best times; the tail, over all runs, keeps
    the slow runs a caller would see."""
    best: dict[int, float] = {}
    for index, _, seconds in runs:
        best[index] = min(seconds, best.get(index, seconds))
    return list(best.values())


def tail(sorted_latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and that
    percentile; the maximum when there are too few samples."""
    n = len(sorted_latencies)
    if n <= 10:
        return sorted_latencies[-1], 100.0
    return sorted_latencies[n - 11], 100.0 * (n - 10) / n


# --- host facts ---------------------------------------------------------------


def host_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "affgeo_threads": os.environ.get("AFFGEO_THREADS", "unset"),
        "as_limit_mb": AS_LIMIT_MB,
        "git_revision": git_revision(),
    }


def blas_threads():
    """Thread count OpenBLAS reports, or the pinned variable if the library
    cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                return int(getattr(lib, fn)())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git; benchmark
    checkouts are often not repositories."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


if __name__ == "__main__":
    main(sys.argv[1:])
