"""Command-line interface.

    centering run <corpus> [--classic] [--format figure|structured]
                           [--dump-anchors] [--explain]
    centering check <corpus>
    centering corpus list

<corpus> is a file path, or the id of a bundled sample (see
`centering corpus list`). Exit codes: 0 clean run; 1 run completed with
diagnostics (unresolved pronoun, tie, anchor budget); 2 corpus errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .corpus import CorpusError, build_utterances, bundled_corpora, load_bundled, parse_corpus
from .engine import process_document
from .model import Mode, allocate_indices
from .render import render_trace

# A corpus that cannot be read (OSError, including an unknown id), decoded
# (UnicodeDecodeError, a ValueError) or validated (CorpusError): exit 2.
_CORPUS_ERRORS = (CorpusError, OSError, ValueError)


def _load_document(ref: str):
    path = Path(ref)
    if path.exists():
        return parse_corpus(path.read_text(encoding="utf-8"))
    return load_bundled(ref)


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        doc = _load_document(args.corpus)
    except _CORPUS_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    mode = Mode.CLASSIC if args.classic else None
    results = process_document(doc, mode)
    sys.stdout.write(
        render_trace(results, args.format, dump_anchors=args.dump_anchors, explain=args.explain)
    )
    diagnostics = [r for r in results if r.diagnostic_kind is not None]
    for r in diagnostics:
        print(f"diagnostic: U{r.position}: {r.diagnostic_kind}: {r.diagnostic}", file=sys.stderr)
    return 1 if diagnostics else 0


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        doc = _load_document(args.corpus)
        allocate_indices(build_utterances(doc))
    except _CORPUS_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"ok: {doc.id}: {len(doc.utterances)} utterances")
    return 0


def _cmd_corpus_list(_args: argparse.Namespace) -> int:
    for name, text in bundled_corpora().items():
        doc = parse_corpus(text)
        first = doc.utterances[0].text if doc.utterances else "(empty)"
        print(f"{name:<8} {len(doc.utterances)} utterances  {first}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on the first call and shared by
    every later call in the process, `cli_main`'s included. Parsing does
    not change it; a caller must not mutate it either."""
    parser = argparse.ArgumentParser(
        prog="centering",
        description="Track local discourse attention and bind pronouns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="process a corpus and print its trace")
    run.add_argument("corpus", help="corpus file or bundled corpus id")
    run.add_argument("--classic", action="store_true", help="use the three-way transition typology")
    run.add_argument("--format", choices=("figure", "structured"), default="figure")
    run.add_argument("--dump-anchors", action="store_true", help="list every constructed anchor (figure format only)")
    run.add_argument("--explain", action="store_true", help="show per-filter elimination lists (figure format only)")
    run.set_defaults(func=_cmd_run)

    check = sub.add_parser("check", help="validate a corpus file")
    check.add_argument("corpus", help="corpus file or bundled corpus id")
    check.set_defaults(func=_cmd_check)

    corpus = sub.add_parser("corpus", help="bundled sample corpora")
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)
    corpus_list = corpus_sub.add_parser("list", help="list bundled corpora")
    corpus_list.set_defaults(func=_cmd_corpus_list)

    return parser


def cli_main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
