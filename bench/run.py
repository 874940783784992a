"""affgeo benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload pose-small --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The run happens in a child process
(``worker.py``) that imports ``src/affgeo`` from this checkout, caps its own
address space, pins BLAS to one thread and sets the workload's
``AFFGEO_THREADS``. With ``--trace 0`` the result carries the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run, which also
writes its spans under ``.bench_out/``. ``--tiny`` shrinks every workload to a
few small pairs for the self-check in ``test_selfcheck.py``.

``latency_p50_ms`` and ``pairs_per_s`` are taken over each pool pair's best
run in the loop, which other tenants of a shared host disturb far less than
any single run; ``latency_tail_ms`` is taken over all runs, and the plain
wall-clock rate is printed as ``wall_pairs_per_s``.

Before the JSON line it prints the host facts, every metric with its unit
(plus ``failed_frac`` and the median error against ground truth), and the
output digest: whether it matches ``reference.json`` for this seed and
whether it repeats the last run of the same source in this checkout. A
digest that does not repeat, or a traced run whose outputs differ from its
untraced passes, makes the result incorrect.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DIGEST_LOG = ROOT / ".bench_out" / "digests.json"
WORKER_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-check")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 2
    if not (ROOT / "src" / "affgeo" / "__init__.py").is_file():
        sys.stderr.write(f"error: no affgeo source under {ROOT / 'src'}\n")
        return 2

    result = run_worker(args)
    if result is None:
        return 1
    size = "tiny" if args.tiny else "full"
    problems = result["problems"]
    repeat = check_repeat(f"{args.workload}/{args.seed}/{size}", result["digest"])
    if repeat == "differs":
        problems.append("digest differs from the last run of this source")
    reference = json.loads((BENCH / "reference.json").read_text())["digests"]
    expected = reference.get(args.workload, {}).get(str(args.seed)) if not args.tiny else None
    if expected is None:
        ref = "no reference for this seed"
    else:
        ref = "matches reference" if expected == result["digest"] else "differs from reference"

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} size {size}")
    print("host " + " ".join(f"{k}={v}" for k, v in result["host"].items()))
    for name, m in metrics.items():
        note = ""
        if name == "latency_tail_ms":
            note = f"  (p{result['tail']['percentile']:.1f} of {result['tail']['samples']} pairs)"
        elif name in ("latency_p50_ms", "pairs_per_s"):
            note = f"  (best run of each pool pair, {result['passes']:.1f} runs per pair)"
        elif name == "setup_s":
            note = "  (median of " + ", ".join(f"{t:.3f}" for t in result["setup_runs_s"]) + ")"
        print(f"metric {name} = {m['value']:.6g} {m['unit']}{note}")
    for name, (value, unit) in result["extra"].items():
        print(f"metric {name} = {value:.6g} {unit}")
    for name, share in result.get("shares", {}).items():
        print(f"share {name} = {share:.3f}")
    if "trace_file" in result:
        print(f"trace {result['trace_file']}")
    print(f"digest {result['digest']} ({ref}; {repeat})")
    for problem in problems:
        print(f"problem {problem}")
    print(json.dumps({
        "correct": not problems and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def run_worker(args) -> dict | None:
    """Runs worker.py in a child process and returns its result, or None if
    it failed (its stderr has been passed through)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), args.workload, str(args.seed),
           str(args.seconds), str(args.trace), "1" if args.tiny else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"error: worker did not finish within {WORKER_TIMEOUT_S} s\n")
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.stderr.write(f"error: worker exited with code {proc.returncode}\n")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_repeat(key: str, digest: str) -> str:
    """Compares the digest with the last run of the same source and inputs in
    this checkout, then records it."""
    key = f"{key}/{source_hash()}"
    log = json.loads(DIGEST_LOG.read_text()) if DIGEST_LOG.is_file() else {}
    previous = log.get(key)
    log[key] = digest
    DIGEST_LOG.parent.mkdir(exist_ok=True)
    DIGEST_LOG.write_text(json.dumps(log, indent=1, sort_keys=True))
    if previous is None:
        return "first run of this source"
    return "repeats" if previous == digest else "differs"


def source_hash() -> str:
    """Fingerprint of the package and benchmark sources."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "affgeo").glob("*.py")) + sorted(BENCH.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


if __name__ == "__main__":
    sys.exit(main())
