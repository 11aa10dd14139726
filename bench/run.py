"""The centering benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads, and why each exists, are in
corpusgen.py. A run:

1. writes the workload's corpus files for `--seed` under bench/.work/,
   plus the default-seed discourses whose stdout digest is pinned in
   bench/digests.json;
2. with `--trace 0`, measures set-up: the median, over several fresh
   interpreters, of `import centering.cli` plus building the CLI's
   argument parser (one unmeasured launch first fills the bytecode cache);
3. starts worker.py in its own interpreter, which verifies the program's
   outputs and then drives `centering run` over the corpus files in a
   closed loop, from one client, for `--seconds`;
4. prints one JSON line: the end-to-end metrics with `--trace 0`, the
   per-layer metrics with `--trace 1`.

Times are given at a fixed machine speed ("ref-" units; see
reference.py), because a shared machine's speed can drift by tens of
percent within a run and between runs: worker.py times a pure-Python
reference loop after every request and scales each request's times by the
loop timings around it, and each set-up probe times the loop right after
its import, so setup_s, given in s, is at reference speed too. The raw
figures are in the report.

With `--trace 1` the worker runs each discourse untraced and then
traced, back to back, in whole passes over the pool for `--seconds`. It
writes the spans to bench/.work/<workload>/spans.jsonl and reports
per-layer self times and counts per pass over the pool, and the tracing
overhead as the traced numbers minus the untraced ones. The full report
of every run, verification problems included, goes to
bench/.work/<workload>/report.json.

Uses only the standard library. Exits 2 without a result outside a
checkout of the repository.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from corpusgen import WORKLOADS, write_corpus  # noqa: E402
from reference import REFERENCE_MS  # noqa: E402

DEFAULT_SEED = 0
DIGEST_DISCOURSES = 4
SETUP_LAUNCHES = 15
DEADLINE_S = 170

SETUP_PROBE = (
    "import sys, time; sys.path[:0] = [{src!r}, {bench!r}]; t = time.perf_counter_ns(); "
    "import centering.cli; centering.cli.build_parser(); setup = time.perf_counter_ns() - t; "
    "import reference; print(setup, *(reference.reference_ns() for _ in range(3)))"
)

# "ref-" units: at the fixed machine speed worker.py scales times to.
E2E_UNITS = {
    "utterances_per_s": "utterances/ref-s",
    "anchors_per_s": "anchors/ref-s",
    "latency_p50_ms": "ref-ms",
    "latency_p95_ms": "ref-ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def setup_seconds(deadline: float) -> tuple[float, float]:
    """Median set-up time over fresh interpreters, after one unmeasured
    launch: at reference speed, and raw."""
    probe = SETUP_PROBE.format(src=str(ROOT / "src"), bench=str(BENCH))
    scaled, raw = [], []
    for launch in range(SETUP_LAUNCHES + 1):
        done = subprocess.run(
            [sys.executable, "-c", probe], cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        setup_ns, *refs = map(int, done.stdout.split())
        if launch:
            raw.append(setup_ns / 1e9)
            scaled.append(setup_ns / 1e9 * REFERENCE_MS * 1e6 / statistics.median(refs))
    return statistics.median(scaled), statistics.median(raw)


def run_worker(args: argparse.Namespace, plan: Path, work: Path, deadline: float) -> dict:
    command = [
        sys.executable, str(BENCH / "worker.py"), "--workload", args.workload, "--argvs", str(plan),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--spans", str(work / "spans.jsonl"),
    ]
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as worker:
        try:
            out, _ = worker.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            worker.kill()
            worker.communicate()
            raise
    if worker.returncode != 0:
        raise RuntimeError(f"worker exited {worker.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    deadline = time.monotonic() + DEADLINE_S
    parser = argparse.ArgumentParser(description="centering benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "centering" / "cli.py").is_file() or not (ROOT / "tests" / "support.py").is_file():
        print(f"error: {ROOT} is not a checkout of the centering repository", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = BENCH / ".work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    argvs = {
        "pool": write_corpus(workload, args.seed, work / "pool"),
        "digest": write_corpus(workload, DEFAULT_SEED, work / "default-seed", DIGEST_DISCOURSES),
    }
    plan = work / "plan.json"
    plan.write_text(json.dumps({
        key: [["run", str(path), *workload.flags] for path in paths] for key, paths in argvs.items()
    }), encoding="utf-8")

    setup_s, setup_raw_s = setup_seconds(deadline) if not args.trace else (None, None)
    report = run_worker(args, plan, work, deadline)
    report.update(
        workload=workload.name, seed=args.seed, seconds=args.seconds, setup_s=setup_s,
        setup_raw_s=setup_raw_s, failed_frac=report["failed"] / report["attempted"],
    )
    (work / "report.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for problem in report["problems"]:
        print(f"verification: {problem}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in report["per_layer"].items()}
    else:
        if report["e2e"]["requests"] < 200:
            print(f"note: {report['e2e']['requests']} requests, so p95 has under 10 samples beyond it", file=sys.stderr)
        values = {key: v for key, v in report["e2e"].items() if key in E2E_UNITS}
        values.update(setup_s=setup_s, peak_rss_mb=report["peak_rss_mb"])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    print(json.dumps({
        "correct": report["failed"] == 0 and not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
