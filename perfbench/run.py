"""End-to-end simulator benchmark: one workload, one run, one JSON result.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig7-sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics in fresh untraced
processes: ``setup_s`` is the median over a set-up-only process and the
measuring one, and ``requests_per_s``/``cell_s_max`` come from each
cell's median host time over the passes that fit in ``--seconds``.
``--trace 1`` runs the per-layer traced rounds instead.  Either way the last stdout
line is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it carries ``sim_digest``, the host record and the details.

Exits 2 without a result when the checkout has no ``src/repro`` or a
measuring process fails.  See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: Wall-clock cap of a whole run (all its processes), seconds.
RUN_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker(mode: str, args: argparse.Namespace) -> dict:
    """Run ``worker.py`` in a fresh process; its last stdout line, parsed.

    The process is killed once the run has used ``RUN_TIMEOUT_S``.
    """
    env = dict(os.environ)
    # every run starts cold and equal: no on-disk workload store, one
    # fixed hash seed
    env.pop("REPRO_WORKLOAD_CACHE", None)
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--scale", args.scale,
           "--workdir", str(WORKDIR)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True,
                              timeout=max(1.0, args.end - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process timed out after {exc.timeout}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process exited with {proc.returncode}")
    return json.loads(lines[-1])


def _metrics(kind: str, values: dict) -> dict:
    """Every ``kind`` metric of ``BENCHMARK.json``, by name, with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for {kind} metrics {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def measure(args: argparse.Namespace) -> tuple[dict, dict, list]:
    """End-to-end metrics: (metrics, details, passes)."""
    # a set-up-only process, then the measuring one: two cold set-ups
    setups = [_worker("setup", args)["setup_s"]]
    run = _worker("measure", args)
    setups.append(run["setup_s"])
    passes = run["passes"]
    # each cell's median host time over the passes, so that a slow spell
    # of the host during one pass moves no cell by more than its share
    cell_s = [statistics.median(times)
              for times in zip(*(p["cell_s"] for p in passes))]
    metrics = {
        "setup_s": statistics.median(setups),
        "requests_per_s": passes[0]["requests"] / sum(cell_s),
        "cell_s_max": max(cell_s),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    info = {"setup_s_samples": setups, "passes": len(passes),
            "host": run["host"]}
    return _metrics("end_to_end", metrics), info, passes


def trace(args: argparse.Namespace) -> tuple[dict, dict, list]:
    """Per-layer metrics: (metrics, details, passes)."""
    run = _worker("trace", args)
    shares = run["self_share"]
    top = max(shares, key=shares.get)
    info = {
        "self_share": shares,
        "top_layer": top,
        "stressed": run["stressed"],
        "stressed_layer_on_top": top in run["stressed"],
        "host": run["host"],
    }
    if top not in run["stressed"]:
        print(f"note: largest self-time share is {top!r}, not one of "
              f"{run['stressed']}", file=sys.stderr)
    return _metrics("per_layer", run["layers"]), info, run["passes"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (default 1; 2 is the held-out seed)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time of one run (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer traced run instead of end-to-end")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny = self-test sizes")
    args = parser.parse_args(argv)
    args.end = time.monotonic() + RUN_TIMEOUT_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    try:
        metrics, info, passes = (trace if args.trace else measure)(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    digests = sorted({p["digest"] for p in passes})
    attempted = sum(p["cells"] for p in passes)
    failed = sum(p["failed_cells"] for p in passes)
    correct = failed == 0 and len(digests) == 1
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "sim_digest": digests[0] if len(digests) == 1 else digests,
        "cell_fail_ratio": failed / attempted,
        **info,
    }))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
