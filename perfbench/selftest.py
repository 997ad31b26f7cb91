"""Self-test of the benchmark at tiny size.

Runs every workload once untraced and once traced at ``--scale tiny``
and asserts that the result line has exactly the contract's keys, that
every metric ``BENCHMARK.json`` names appears with its unit, and that
the run is correct.  Then checks that a directory holding only
``BENCHMARK.json`` and this directory makes the benchmark fail without
a result.

    python3 perfbench/selftest.py

Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BARE = ROOT / ".perfbench_bare"


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / HERE.name / "run.py"), *args],
        cwd=root, stdout=subprocess.PIPE, text=True, timeout=300)


def check_workload(name: str, trace: int, spec: dict) -> None:
    proc = _run(ROOT, "--workload", name, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, f"{name} trace={trace}: exit {proc.returncode}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True, (name, trace, info)
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected, (name, trace, set(got) ^ set(expected))
    for k, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)), (k, v)
    if not trace:
        for k, v in result["metrics"].items():
            assert v["value"] > 0, (name, k, v)
    assert isinstance(info["sim_digest"], str), info["sim_digest"]
    print(f"ok  {name:18s} trace={trace} digest={info['sim_digest']}")


def check_bare_directory() -> None:
    shutil.rmtree(BARE, ignore_errors=True)
    try:
        BARE.mkdir()
        shutil.copy2(ROOT / "BENCHMARK.json", BARE / "BENCHMARK.json")
        shutil.copytree(HERE, BARE / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(BARE, "--workload", "fig7-sweep", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0, "bare directory run exited 0"
        assert proc.stdout.strip() == "", proc.stdout
    finally:
        shutil.rmtree(BARE, ignore_errors=True)
    print("ok  bare directory fails without a result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_workload(workload["name"], trace, spec)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
