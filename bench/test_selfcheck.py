"""Fast self-check of the benchmark: every workload at a tiny size.

    python3 -m pytest -q bench/test_selfcheck.py

Each workload runs twice untraced and once traced. Every run must be
correct, print each of its metrics by name with the unit BENCHMARK.json
gives, and print the same output digest: the second untraced run repeats
the first, and the traced run's outputs equal the untraced ones.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_tiny(workload):
    digests = []
    for trace in (0, 0, 1):
        lines, result = run(workload, trace)
        assert result["correct"], lines
        assert result["failed"] == 0 and result["attempted"] >= 1

        wanted = SPEC["per_layer" if trace else "end_to_end"]
        assert set(result["metrics"]) == {m["name"] for m in wanted}
        printed = {line.split()[1]: line.split()[3:5] for line in lines if line.startswith("metric ")}
        for m in wanted:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
            value, unit = printed[m["name"]]
            assert unit == m["unit"]
            float(value)

        digest_line = next(line for line in lines if line.startswith("digest "))
        digests.append(digest_line.split()[1])
        if len(digests) > 1:
            assert "repeats" in digest_line, digest_line
    assert len(set(digests)) == 1
