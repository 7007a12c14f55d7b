"""The repository benchmark: whole ``dgtangent`` CLI runs on seeded models.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark writes the seed's model for the
workload and runs the workload command in a closed loop with one client: one
child process at a time, the next one spawned when the previous has exited,
until ``--seconds`` have passed.  Before each workload run it times
``dgtangent validate`` on the model in a fresh process (set-up).  Every child's stdout is captured to a file and
checked (see ``check_run``).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, from untraced runs:
median wall, CPU and peak RSS of one CLI process, and the median set-up
time.  With ``--trace 1`` untraced and traced runs alternate, and the
metrics are the per-layer split from ``bench/tracer.py``: medians of the
span times, exact counts (which must repeat in every traced run), the
tracer's coverage of the traced wall time and its overhead.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep the checkout free of bench/__pycache__

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYERS
from workloads import WORKLOADS, Workload, normalized

BENCH_DIR = Path(__file__).resolve().parent
LAUNCH = "import sys; from dgtangent.cli import main; sys.exit(main())"
MIN_TRACED_RUNS = 2


def work_root(root: Path) -> Path:
    path = root / ".bench_work"
    path.mkdir(exist_ok=True)
    return path


def child_env(root: Path) -> dict[str, str]:
    """Environment of a CLI child: the package from this checkout's source.

    The caller's ``PYTHON*`` settings are dropped, so that they cannot change
    the timings (``PYTHONUNBUFFERED``, for one, makes every record a write),
    and bytecode is cached under the work directory, as for an installed
    package.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONPYCACHEPREFIX"] = str(work_root(root) / "pycache")
    return env


@dataclass
class Child:
    status: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: str


def spawn(argv: list[str], env: dict[str, str], tmp: Path) -> Child:
    """Run one child to completion; stdout and stderr go to files in tmp."""
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env
        )
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    return Child(
        status=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        stdout=out_path.read_bytes(),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


# ------------------------------------------------------------------ checks


def check_run(
    w: Workload, child: Child, reference: list[bytes], expected: list[dict]
) -> list[str]:
    """Problems with one workload run; empty when the output is correct.

    The first run's stdout becomes the reference, and every later run of the
    same seed must match it byte for byte.
    """
    if child.status != 0:
        return [f"exit status {child.status}: {child.stderr.strip()[-300:]}"]
    try:
        records = [json.loads(line) for line in child.stdout.decode("utf-8").splitlines()]
    except ValueError as exc:
        return [f"stdout is not line-delimited JSON: {exc}"]
    problems = []
    if not reference:
        reference.append(child.stdout)
    elif child.stdout != reference[0]:
        problems.append("stdout differs from the first run of this seed")
    assembly = [r for r in records if r.get("table") == "assembly"]
    if not assembly or not all(r["ok"] is True for r in assembly):
        problems.append("an assembly record is missing or not ok")
    if w.name == "loop-cellular":
        e2 = [r for r in records if r.get("table") == "e2"]
        if not e2 or any(r["engine"] != r["expected"] for r in e2):
            problems.append("second page differs from hom(cells, loop homology)")
    if w.name == "ss-sullivan":
        # This E_1 support is neither one row nor one column, so no collapse
        # page is predicted; a predicted page would have to be verified.
        collapse = [r for r in records if r.get("table") == "collapse"]
        if len(collapse) != 1 or (
            collapse[0]["predicted_page"] is not None and collapse[0]["verified"] is not True
        ):
            problems.append("the collapse record is missing or a predicted collapse fails")
    if normalized(records) != expected:
        problems.append("records differ from the expected table")
    return problems


def check_validate(child: Child) -> list[str]:
    if child.status != 0:
        return [f"validate exit status {child.status}: {child.stderr.strip()[-300:]}"]
    try:
        records = [json.loads(line) for line in child.stdout.decode("utf-8").splitlines()]
    except ValueError as exc:
        return [f"validate stdout is not line-delimited JSON: {exc}"]
    if not records or not all(r["ok"] is True for r in records):
        return ["validate reports a failed check"]
    return []


# ---------------------------------------------------------------- measuring


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Bench:
    """One workload on one seed's model, counting attempted and failed runs."""

    def __init__(self, root: Path, w: Workload, seed: int, tmp: Path) -> None:
        self.w = w
        self.tmp = tmp
        self.env = child_env(root)
        model = tmp / f"{w.name}-{seed}.model"
        model.write_text(w.model_text(seed), encoding="utf-8")
        self.cli_args = w.command(str(model))
        self.validate_args = ["validate", str(model), "--format", "records"]
        self.reference: list[bytes] = []
        self.expected = w.expected_records()
        self.attempted = 0
        self.failed = 0

    def _record(self, problems: list[str]) -> bool:
        self.attempted += 1
        for problem in problems:
            print(f"{self.w.name}: run {self.attempted}: {problem}", file=sys.stderr)
        if problems:
            self.failed += 1
        return not problems

    def untraced(self) -> Child:
        child = spawn([sys.executable, "-c", LAUNCH, *self.cli_args], self.env, self.tmp)
        self._record(check_run(self.w, child, self.reference, self.expected))
        return child

    def traced(self) -> tuple[Child, dict | None]:
        """One traced run and its trace, or None when the run failed.

        The trace holds ``calls`` per boundary and the per-layer ``metrics``,
        to which the coverage of the traced wall time is added here.
        """
        trace_path = self.tmp / "trace.json"
        trace_path.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_path), *self.cli_args]
        child = spawn(argv, self.env, self.tmp)
        problems = check_run(self.w, child, self.reference, self.expected)
        trace = None
        if trace_path.exists():
            trace = json.loads(trace_path.read_text(encoding="utf-8"))
            metrics = trace["metrics"]
            covered = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
            metrics["trace.coverage"] = covered / child.wall_s
        else:
            problems.append("the tracer wrote no trace")
        return child, trace if self._record(problems) else None

    def validate(self) -> Child:
        child = spawn([sys.executable, "-c", LAUNCH, *self.validate_args], self.env, self.tmp)
        self._record(check_validate(child))
        return child

    def end_to_end(self, seconds: float) -> dict[str, float]:
        """Untraced runs, each after one set-up run of ``validate``.

        Set-up runs are spread over the whole window rather than bunched at
        its start, so their median sees the same machine as the workload's.
        """
        self.validate()  # untimed: compiles the package's bytecode
        setups: list[float] = []
        runs: list[Child] = []
        start = time.perf_counter()
        while not runs or time.perf_counter() - start < seconds:
            setups.append(self.validate().wall_s)
            runs.append(self.untraced())
        walls = [c.wall_s for c in runs]
        q1, median, q3 = quartiles(walls)
        print(f"wall_s quartiles {q1:.4f} {median:.4f} {q3:.4f} s over {len(runs)} runs")
        return {
            "wall_s": median,
            "cpu_s": statistics.median(c.cpu_s for c in runs),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(c.peak_rss_mb for c in runs),
        }

    def per_layer(self, seconds: float) -> dict[str, float]:
        self.validate()  # the same bytecode warm-up and input check as untraced runs
        plain: list[Child] = []
        traced: list[tuple[Child, dict]] = []
        start = time.perf_counter()
        while len(plain) < MIN_TRACED_RUNS or time.perf_counter() - start < seconds:
            plain.append(self.untraced())
            child, trace = self.traced()
            if trace is not None:
                traced.append((child, trace["metrics"]))
        if not traced:
            return {}
        first = traced[0][1]
        for _, metrics in traced[1:]:
            drifted = count_drift(first, metrics)
            if drifted:
                print(f"{self.w.name}: trace counts drifted: {drifted}", file=sys.stderr)
                self.failed += 1
        out = {
            key: statistics.median(m[key] for _, m in traced) if is_timing(key) else value
            for key, value in first.items()
        }
        out["trace.overhead_s"] = (
            statistics.median(c.wall_s for c, _ in traced)
            - statistics.median(c.wall_s for c in plain)
        )
        return out


def is_timing(name: str) -> bool:
    return name.endswith("_s") or name == "trace.coverage"


def count_drift(first: dict, other: dict) -> list[str]:
    """Count metrics that differ between two traced runs of one input.

    Counts and their ratios are deterministic, so any drift means the
    tracer is broken rather than noisy.
    """
    return sorted(k for k in first if not is_timing(k) and other[k] != first[k])


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name == "trace.coverage":
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # On SIGTERM, unwind through spawn(), which kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "dgtangent" / "cli.py").is_file():
        print("run from the repository root: src/dgtangent is missing", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    tmp = work_root(root) / f"{w.name}-{args.seed}-{os.getpid()}"
    tmp.mkdir()
    try:
        bench = Bench(root, w, args.seed, tmp)
        if args.trace:
            metrics = bench.per_layer(args.seconds)
        else:
            metrics = bench.end_to_end(args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = max(bench.attempted, 1)
    print(f"fail_rate {bench.failed / attempted:.4f} ({bench.failed} of {attempted} runs)")
    result = {}
    for name, value in metrics.items():
        unit = unit_of(name)
        print(f"{name} {value} {unit}")
        result[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": attempted,
        "failed": bench.failed,
        "metrics": result,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
