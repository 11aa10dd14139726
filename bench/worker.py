"""Benchmark worker: verify, then drive `centering run` in a closed loop.

Started by run.py in its own interpreter, so that its peak RSS is the
workload's. One request is one discourse: an in-process call to
`centering.cli.cli_main(["run", <file>, *flags])` with stdout and stderr
captured in memory, issued by a single client that sends the next request
when the previous one returns. The corpus files exist before the worker
starts; the program only ever sees those files.

Verification runs before the timed loop, once per run:

- the bundled fig2, fig4-fig7 render equal to tests/goldens/*.figure.txt
  and to the digests in tests/goldens/structured.sha256.json;
- the digest of the workload's stdout on the default-seed discourses
  matches bench/digests.json;
- every pool discourse, processed through the library, passes
  `validate_committed`, constructs as many anchors per utterance as
  `oracle_enumerate_anchors` counts (both from tests/support.py).

A timed request fails if it raises, exits 2, prints other bytes than the
library renders for its discourse, or runs a discourse that failed
verification. Each failed golden or digest check counts as one more
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parents[1]
for _path in (ROOT / "tests", ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from centering import cli, corpus, engine, render  # noqa: E402
from centering.model import CfList, Mode  # noqa: E402
from support import oracle_enumerate_anchors, validate_committed  # noqa: E402

from reference import REFERENCE_MS, reference_ns  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

GOLDENS = ROOT / "tests" / "goldens"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

# Span name of each layer boundary, keyed by the per-layer time metric it
# feeds. The root span of a request is the cli_main call itself.
LAYER_SPANS = {
    "cli.self_s": "cli.main",
    "corpus.parse_s": "corpus.parse",
    "corpus.build_s": "corpus.build",
    "model.allocate_s": "model.allocate",
    "construction.propose_s": "construction.propose",
    "filters.run_s": "filters.run",
    "classification.rank_s": "classification.rank",
    "engine.self_s": "engine.process_document",
    "render.s": "render.render_trace",
}


@dataclass
class Pool:
    """The workload's discourses and what verification learned about them."""

    argvs: list[list[str]]
    digests: list[bytes] = field(default_factory=list)
    utterances: list[int] = field(default_factory=list)
    anchors: list[int] = field(default_factory=list)
    bad: list[bool] = field(default_factory=list)


def call_cli(argv: list[str]) -> tuple[int, str]:
    """`centering` with stdout and stderr captured; returns (exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.cli_main(argv)
    return code, out.getvalue()


def check_goldens() -> list[str]:
    problems = []
    hashes = json.loads((GOLDENS / "structured.sha256.json").read_text(encoding="utf-8"))
    for name, digest in sorted(hashes.items()):
        _, figure = call_cli(["run", name])
        if figure != (GOLDENS / f"{name}.figure.txt").read_text(encoding="utf-8"):
            problems.append(f"{name}: figure trace differs from its golden")
        _, structured = call_cli(["run", name, "--format", "structured"])
        if hashlib.sha256(structured.encode("utf-8")).hexdigest() != digest:
            problems.append(f"{name}: structured trace digest differs from its golden")
    return problems


def stdout_digest(argvs: list[list[str]]) -> str:
    """sha256 over the concatenated stdout of the given runs."""
    digest = hashlib.sha256()
    for argv in argvs:
        digest.update(call_cli(argv)[1].encode("utf-8"))
    return digest.hexdigest()


def verify_pool(pool: Pool) -> list[str]:
    """Fill in the pool's expected outputs and sizes; return the problems."""
    problems = []
    for argv in pool.argvs:
        found, rendered, utterances, anchors = _verify(argv)
        pool.digests.append(hashlib.sha256(rendered.encode("utf-8")).digest())
        pool.utterances.append(utterances)
        pool.anchors.append(anchors)
        pool.bad.append(bool(found))
        problems += found
    return problems


def _verify(argv: list[str]) -> tuple[list[str], str, int, int]:
    """Problems, rendered trace, utterance and anchor counts of one discourse."""
    args = cli.build_parser().parse_args(argv)
    try:
        doc = corpus.parse_corpus(Path(args.corpus).read_text(encoding="utf-8"))
        results = engine.process_document(doc, Mode.CLASSIC if args.classic else None)
        rendered = render.render_trace(results, args.format, dump_anchors=args.dump_anchors, explain=args.explain)
    except Exception as exc:  # a crash fails this discourse, not the benchmark
        return [f"{args.corpus}: {type(exc).__name__}: {exc}"], "", 0, 0
    found = [f"{args.corpus}: {p}" for p in validate_committed(results)]
    prior_cf = CfList()
    for r in results:
        expected = len(oracle_enumerate_anchors(r.utterance, prior_cf))
        if r.anchors_constructed != expected:
            found.append(f"{args.corpus}: U{r.position}: {r.anchors_constructed} anchors, oracle {expected}")
        prior_cf = r.cf
    return found, rendered, len(results), sum(r.anchors_constructed for r in results)


@dataclass
class Loop:
    """Outcome of one closed-loop phase."""

    attempted: int = 0
    failed: int = 0
    utterances: int = 0
    anchors: int = 0
    elapsed_s: float = 0.0
    latencies_ns: list[int] = field(default_factory=list)
    reference_ns: list[int] = field(default_factory=list)

    def factors(self) -> list[float]:
        """Per request, the factor that converts its times to reference
        speed: REFERENCE_MS over the median of the reference timings just
        before and after it."""
        refs = self.reference_ns  # refs[k] is taken right after request k
        return [REFERENCE_MS * 1e6 / statistics.median(refs[max(k - 1, 0):k + 2]) for k in range(len(refs))]


def request(pool: Pool, k: int, loop: Loop, tracer: Tracer | None = None) -> None:
    """Run discourse `k` of the pool once and record the outcome in `loop`."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        t0 = perf_counter_ns()
        try:
            if tracer is None:
                code = cli.cli_main(pool.argvs[k])
            else:
                code = tracer.request(loop.attempted, "cli.main", cli.cli_main, pool.argvs[k])
        except Exception:  # a crash fails this request, not the benchmark
            code = None
        t1 = perf_counter_ns()
    if tracer is not None:
        tracer.settle()
    ok = code in (0, 1) and not pool.bad[k]
    ok = ok and hashlib.sha256(out.getvalue().encode("utf-8")).digest() == pool.digests[k]
    loop.attempted += 1
    loop.latencies_ns.append(t1 - t0)
    if ok:
        loop.utterances += pool.utterances[k]
        loop.anchors += pool.anchors[k]
    else:
        loop.failed += 1
    loop.reference_ns.append(reference_ns())


def closed_loop(pool: Pool, seconds: float) -> Loop:
    """Send requests one after another, cycling through the pool, for
    `seconds`; the elapsed time leaves out the reference loop."""
    loop = Loop()
    start = perf_counter()
    while not loop.attempted or perf_counter() - start < seconds:
        request(pool, loop.attempted % len(pool.argvs), loop)
    loop.elapsed_s = perf_counter() - start - sum(loop.reference_ns) / 1e9
    return loop


def paired_loop(pool: Pool, seconds: float, tracer: Tracer) -> tuple[Loop, Loop]:
    """Run each discourse untraced and then traced, back to back, in whole
    passes over the pool until `seconds` are up.

    Pairing makes both halves see the same machine state, so their
    difference is the tracing overhead rather than drift. Each loop's
    elapsed time is the sum of its own latencies.
    """
    untraced, traced = Loop(), Loop()
    n = len(pool.argvs)
    start = perf_counter()
    while traced.attempted % n or not traced.attempted or perf_counter() - start < seconds:
        k = traced.attempted % n
        request(pool, k, untraced)
        install_tracer(tracer)
        try:
            request(pool, k, traced, tracer)
        finally:
            tracer.uninstall()
    for loop in (untraced, traced):
        loop.elapsed_s = sum(loop.latencies_ns) / 1e9
    return untraced, traced


def percentile_ms(latencies_ns: list[float], p: int) -> float:
    if len(latencies_ns) == 1:
        return latencies_ns[0] / 1e6
    return statistics.quantiles(latencies_ns, n=100, method="inclusive")[p - 1] / 1e6


def end_to_end(loop: Loop) -> dict:
    """Throughput and latency at reference speed, with the raw figures."""
    raw = {
        "utterances_per_s": loop.utterances / loop.elapsed_s,
        "anchors_per_s": loop.anchors / loop.elapsed_s,
        "latency_p50_ms": percentile_ms(loop.latencies_ns, 50),
        "latency_p95_ms": percentile_ms(loop.latencies_ns, 95),
    }
    scaled = [ns * f for ns, f in zip(loop.latencies_ns, loop.factors())]
    speedup = sum(loop.latencies_ns) / sum(scaled)
    return {
        "utterances_per_s": raw["utterances_per_s"] * speedup,
        "anchors_per_s": raw["anchors_per_s"] * speedup,
        "latency_p50_ms": percentile_ms(scaled, 50),
        "latency_p95_ms": percentile_ms(scaled, 95),
        "requests": loop.attempted,
        "reference_ms": statistics.median(loop.reference_ns) / 1e6,
        "raw": raw,
    }


def _observe_parse(counts, args, doc):
    counts["corpus.np_lines"] += sum(len(u.nps) for u in doc.utterances)


def _observe_propose(counts, args, anchors):
    counts["construction.anchors"] += len(anchors)


def _observe_filters(counts, args, result):
    survivors, verdicts = result
    counts["filters.anchors"] += len(verdicts)
    counts["filters.survivors"] += len(survivors)
    for verdict in verdicts:
        for name in verdict.eliminated_by:
            counts[f"filters.eliminated.{name}"] += 1


def _observe_rank(counts, args, result):
    counts["classification.survivors"] += len(args[0])
    counts["classification.ties"] += result[2]


def _observe_render(counts, args, text):
    counts["render.bytes"] += len(text.encode("utf-8"))


def install_tracer(tracer: Tracer) -> None:
    """Wrap every layer call the CLI makes, by the names its callers use."""
    wraps = (
        (cli, "parse_corpus", "corpus.parse", _observe_parse),
        (cli, "process_document", "engine.process_document", None),
        (cli, "render_trace", "render.render_trace", _observe_render),
        (corpus, "build_utterances", "corpus.build", None),
        (engine, "allocate_indices", "model.allocate", None),
        (engine, "propose_anchors", "construction.propose", _observe_propose),
        (engine, "run_filters", "filters.run", _observe_filters),
        (engine, "rank_and_select", "classification.rank", _observe_rank),
    )
    for module, attr, name, observe in wraps:
        tracer.install(module, attr, tracer.wrap(name, getattr(module, attr), observe))
    tracer.install(render, "roman", tracer.counted("render.roman_calls", render.roman))


def per_layer(tracer: Tracer, traced: Loop, untraced: Loop, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit).

    Self times (at reference speed) and counts are per pass over the
    pool, so counts repeat exactly between runs of one seed. The tracing
    overhead compares the paired traced and untraced requests;
    `trace.accounted_frac` is the share of the traced requests' measured
    time that the spans cover.
    """
    spans: list[Span] = tracer.spans  # every span is closed once the loop ends
    factors = traced.factors()
    own: dict[str, float] = {}
    for span, ns in zip(spans, self_times(spans)):
        own[span.name] = own.get(span.name, 0) + ns * factors[span.request]
    metrics = {metric: (own.get(name, 0) / 1e9 / passes, "ref-s") for metric, name in LAYER_SPANS.items()}

    def per_pass(name: str) -> float:
        return tracer.counts[name] / passes

    anchors = per_pass("construction.anchors")
    filtered = max(per_pass("filters.anchors"), 1)
    metrics.update({
        "corpus.np_lines_per_s": (per_pass("corpus.np_lines") / metrics["corpus.parse_s"][0], "lines/ref-s"),
        "construction.anchors": (anchors, "count"),
        "construction.ns_per_anchor": (metrics["construction.propose_s"][0] * 1e9 / max(anchors, 1), "ref-ns"),
        "filters.ns_per_anchor": (metrics["filters.run_s"][0] * 1e9 / filtered, "ref-ns"),
        "filters.survivor_ratio": (per_pass("filters.survivors") / filtered, "ratio"),
        "classification.survivors": (per_pass("classification.survivors"), "count"),
        "classification.ties": (per_pass("classification.ties"), "count"),
        "render.bytes": (per_pass("render.bytes"), "bytes"),
        "render.roman_calls": (per_pass("render.roman_calls"), "count"),
    })
    for name in ("contra", "constraint3", "rule1"):
        metrics[f"filters.eliminated.{name}"] = (per_pass(f"filters.eliminated.{name}"), "count")
    spanned_ns = sum(s.end_ns - s.start_ns for s in spans if s.parent < 0)
    metrics.update({
        "trace.p50_overhead_ms": (
            end_to_end(traced)["latency_p50_ms"] - end_to_end(untraced)["latency_p50_ms"], "ref-ms"),
        "trace.overhead_frac": (traced.elapsed_s / untraced.elapsed_s - 1, "ratio"),
        "trace.accounted_frac": (spanned_ns / 1e9 / traced.elapsed_s, "ratio"),
    })
    return metrics


def run(argvs: list[list[str]], digest_argvs: list[list[str]], workload: str, seconds: float, trace: bool,
        spans_out: Path) -> dict:
    """Verify, run the closed loop, and return the worker's report."""
    pool = Pool(argvs)
    problems = check_goldens()
    expected = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload)
    found = stdout_digest(digest_argvs)
    if found != expected:
        problems.append(f"{workload}: default-seed stdout digest {found} != recorded {expected}")
    pool_problems = verify_pool(pool)
    global_failures = len(problems)
    problems += pool_problems
    report: dict = {"problems": problems, "default_seed_digest": found}
    if not trace:
        loops = (closed_loop(pool, seconds),)
        report["e2e"] = end_to_end(loops[0])
    else:
        tracer = Tracer()
        loops = untraced, traced = paired_loop(pool, seconds, tracer)
        report["per_layer"] = per_layer(tracer, traced, untraced, traced.attempted // len(pool.argvs))
        report["untraced_e2e"] = end_to_end(untraced)
        report["traced_e2e"] = end_to_end(traced)
        tracer.write(spans_out)
    report["attempted"] = sum(loop.attempted for loop in loops)
    report["failed"] = sum(loop.failed for loop in loops) + global_failures
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--argvs", type=Path, required=True, help="JSON: {'pool': [argv...], 'digest': [argv...]}")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", type=Path, required=True, help="where a traced run writes its spans")
    args = parser.parse_args()
    plan = json.loads(args.argvs.read_text(encoding="utf-8"))
    report = run(plan["pool"], plan["digest"], args.workload, args.seconds, bool(args.trace), args.spans)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
