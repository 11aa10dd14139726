"""Tests of the benchmark itself: seeded inputs, span arithmetic, and a
tiny run of every workload through the worker."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench_run
import worker
from corpusgen import WORKLOADS, write_corpus
from spans import Span, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes_and_other_seed_other_bytes(tmp_path, name):
    w = WORKLOADS[name]
    first = [p.read_bytes() for p in write_corpus(w, 7, tmp_path / "a", 3)]
    again = [p.read_bytes() for p in write_corpus(w, 7, tmp_path / "b", 3)]
    other = [p.read_bytes() for p in write_corpus(w, 8, tmp_path / "c", 3)]
    assert first == again
    assert all(x != y for x, y in zip(first, other))


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("root", 0, 100, -1, 0),
        Span("a", 10, 40, 0, 0),
        Span("a1", 15, 25, 1, 0),
        Span("b", 50, 90, 0, 0),
        Span("c", 80, 95, 0, 0),  # overlaps b: the overlap counts once
        Span("root2", 200, 230, -1, 1),
    ]
    assert self_times(spans) == [100 - 30 - 45, 30 - 10, 10, 40, 15, 30]


def test_self_times_of_nested_calls_add_up_to_the_root():
    spans = [
        Span("cli.main", 0, 1000, -1, 0),
        Span("corpus.parse", 5, 300, 0, 0),
        Span("engine.process_document", 310, 800, 0, 0),
        Span("filters.run", 400, 600, 2, 0),
        Span("render.render_trace", 810, 990, 0, 0),
    ]
    assert sum(self_times(spans)) == 1000


def test_each_request_is_scaled_by_the_reference_timings_around_it():
    loop = worker.Loop(latencies_ns=[10, 20, 30], reference_ns=[3_000_000, 6_000_000, 6_000_000])
    ref_ns = worker.REFERENCE_MS * 1e6
    assert loop.factors() == [ref_ns / 4_500_000, ref_ns / 6_000_000, ref_ns / 6_000_000]


def _plan(name: str, tmp_path: Path) -> tuple[list[list[str]], list[list[str]]]:
    w = WORKLOADS[name]
    pool = write_corpus(w, 5, tmp_path / "pool", 2)
    digest = write_corpus(w, bench_run.DEFAULT_SEED, tmp_path / "digest", bench_run.DIGEST_DISCOURSES)
    return ([["run", str(p), *w.flags] for p in pool], [["run", str(p), *w.flags] for p in digest])


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_declared_workloads_and_metrics_match_the_code():
    declared = _declared()
    assert {(w["name"], w["why"]) for w in declared["workloads"]} == {(w.name, w.why) for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == bench_run.E2E_UNITS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_of_each_workload(tmp_path, name):
    declared = _declared()
    pool, digest = _plan(name, tmp_path)
    reports = [worker.run(pool, digest, name, 0.0, trace=True, spans_out=tmp_path / "spans.jsonl") for _ in "ab"]
    for report in reports:
        assert report["problems"] == []
        assert report["failed"] == 0
        assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
            name: unit for name, (_, unit) in report["per_layer"].items()
        }
        assert report["untraced_e2e"]["requests"] == report["traced_e2e"]["requests"] == len(pool)
    counts = [
        {k: v for k, v in r["per_layer"].items() if v[1] in ("count", "bytes")} for r in reports
    ]
    assert counts[0] == counts[1]
    assert counts[0]["construction.anchors"][0] > 0
    spans = (tmp_path / "spans.jsonl").read_text(encoding="utf-8").splitlines()
    assert {json.loads(line)[0] for line in spans} == set(worker.LAYER_SPANS.values())


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ambiguous", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
