"""One-shot CI gate: tests, coverage floor, and the perf-regression check.

Runs, in order:

1. the tier-1 test suite (``pytest tests/``) — with ``pytest-cov``
   measuring ``src/repro`` and enforcing the floor configured under
   ``[tool.coverage.report]`` in ``pyproject.toml`` when the plugin is
   installed; without it the suite still runs and the coverage step is
   reported as skipped (the gate must work on minimal toolchains);
2. the throughput benchmark (``benchmarks/bench_throughput.py``), which
   measures this checkout and writes the result to the git-ignored
   ``benchmarks/results/throughput.json``;
3. the throughput regression check (:mod:`benchmarks.check_regression`)
   on that fresh measurement — skipped with a notice when none exists,
   failing the gate only on an actual regression.

The gate never reads a committed measurement: a stale file would gate
the code that wrote it, not the code under test.

Exit code 0 iff every step that could run passed:

    PYTHONPATH=src python benchmarks/ci_gate.py
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = Path(__file__).resolve().parent / "results" / "throughput.json"


def has_pytest_cov() -> bool:
    return importlib.util.find_spec("pytest_cov") is not None


def _pytest(args: list[str]) -> int:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    return subprocess.run([sys.executable, "-m", "pytest", *args],
                          cwd=REPO_ROOT, env=env).returncode


def run_tests(*, with_coverage: bool) -> int:
    args = ["tests/"]
    if with_coverage:
        args += ["--cov=repro", "--cov-report=term-missing:skip-covered",
                 "--cov-fail-under=80"]
    return _pytest(args)


def run_throughput_bench() -> int:
    """Measure this checkout; writes :data:`RESULTS_PATH` before gating."""
    return _pytest(["benchmarks/bench_throughput.py", "-q"])


def run_regression_check() -> int:
    from check_regression import main as check_main
    if not RESULTS_PATH.exists():
        print(f"ci_gate: no throughput measurement at {RESULTS_PATH} — "
              "perf gate skipped (run bench_throughput.py to arm it)")
        return 0
    return check_main([str(RESULTS_PATH)])


def main() -> int:
    coverage = has_pytest_cov()
    if not coverage:
        print("ci_gate: pytest-cov not installed — running tests without "
              "the coverage floor")
    rc = run_tests(with_coverage=coverage)
    if rc != 0:
        print(f"ci_gate: test suite failed (exit {rc})")
        return rc
    rc = run_throughput_bench()
    if rc != 0:
        print(f"ci_gate: throughput bench failed (exit {rc})")
        return rc
    rc = run_regression_check()
    if rc != 0:
        print(f"ci_gate: perf regression gate failed (exit {rc})")
        return rc
    print("ci_gate: all gates passed"
          + ("" if coverage else " (coverage skipped)"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
