"""Self-checks of the benchmark's generator and tracer.

    python3 bench/check.py

Run from the repository root; exits 1 when a check fails.  For every
workload it

- validates the models of seeds 1 and 2 with ``dgtangent validate``;
- runs seed 2 untraced and seed 1 traced twice, and requires every run to
  pass the benchmark's output checks, whose expected table is the same for
  all seeds (so the two seeds' records agree);
- requires the counts of the two traced runs to agree exactly, the layers'
  self times to cover at least 90 % of the traced wall time, and the layer
  named in ``DOMINANT`` to have the largest self time.

Across all workloads, every wrapped boundary must have fired at least once.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import os
import shutil
from pathlib import Path

import run
from tracer import BOUNDARIES, LAYERS
from workloads import WORKLOADS

MIN_COVERAGE = 0.9
DOMINANT = {"loop-cellular": "linalg", "ss-sullivan": "linalg", "aut-relative": "algebra"}


def check_workload(root: Path, name: str, fired: set[str]) -> list[str]:
    w = WORKLOADS[name]
    tmp = run.work_root(root) / f"check-{name}-{os.getpid()}"
    tmp.mkdir()
    try:
        other = run.Bench(root, w, 2, tmp)
        other.validate()
        other.untraced()
        bench = run.Bench(root, w, 1, tmp)
        bench.validate()
        traces = [bench.traced()[1] for _ in range(2)]
        if other.failed or bench.failed or None in traces:
            return ["a run failed its output checks (see above)"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    problems = []
    first, second = (trace["metrics"] for trace in traces)
    drifted = run.count_drift(first, second)
    if drifted:
        problems.append(f"counts differ between two traced runs: {drifted}")
    if first["trace.coverage"] < MIN_COVERAGE:
        problems.append(f"coverage {first['trace.coverage']:.3f} < {MIN_COVERAGE}")
    self_s = {layer: first[f"{layer}.self_s"] for layer in LAYERS}
    top = max(self_s, key=self_s.get)
    if top != DOMINANT[name]:
        problems.append(f"largest self time is {top}, expected {DOMINANT[name]}")
    fired.update(b for b, calls in traces[0]["calls"].items() if calls)
    covered = sum(self_s.values())
    split = "  ".join(f"{layer} {self_s[layer] / covered:.0%}" for layer in LAYERS)
    print(f"{name}: coverage {first['trace.coverage']:.3f}; self-time split {split}")
    return problems


def main() -> int:
    root = Path.cwd()
    fired: set[str] = set()
    problems = []
    for name in WORKLOADS:
        problems += [f"{name}: {p}" for p in check_workload(root, name, fired)]
    wrapped = {f"{owner}.{attr}" if owner else attr for _, owner, attr in BOUNDARIES}
    wrapped.add("derivations.diff_fn")
    never = sorted(wrapped - fired)
    if never:
        problems.append(f"wrapped boundaries that never fired: {never}")
    for problem in problems:
        print("FAIL", problem)
    print("benchmark self-check:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
