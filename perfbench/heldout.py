"""Compare per-layer self-time orderings on the default and held-out seeds.

    python3 perfbench/heldout.py

Runs the traced run of every workload on seed 1 (the default) and on
seed 2 (held out: not used while tuning). For each workload it prints
the layers by self-time share, largest first, for both seeds. It also
says whether the largest layer is the same on both. A later
performance claim can be re-checked on seed 2 this way.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SEED, HELDOUT_SEED = 1, 2


def shares(workload: str, seed: int, seconds: float) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-2])["self_share"]


def ordering(share: dict[str, float]) -> list[str]:
    """Layers with a non-zero share, largest first."""
    return [k for k, v in sorted(share.items(), key=lambda kv: -kv[1]) if v > 0]


def _line(share: dict[str, float]) -> str:
    return " > ".join(f"{k} {share[k]:.1%}" for k in ordering(share))


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        sa = shares(workload, DEFAULT_SEED, spec["run_seconds"])
        sb = shares(workload, HELDOUT_SEED, spec["run_seconds"])
        a, b = ordering(sa), ordering(sb)
        print(f"{workload}: seed {DEFAULT_SEED}: {_line(sa)}")
        print(f"{workload}: seed {HELDOUT_SEED}: {_line(sb)}")
        print(f"{workload}: top layer {'matches' if a[0] == b[0] else 'DIFFERS'};"
              f" full ordering {'matches' if a == b else 'differs'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
