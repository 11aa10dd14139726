"""Mutation check: do the tests notice a one-token change to the program?

Each mutant changes one operator or integer constant of a module under
`src/`: a comparison flipped, `and`/`or` swapped, `|`, `^` and `&`
exchanged, a shift, `+`/`-` or `//`/`%` swapped, or an integer constant
increased by 1. Annotations are skipped: under `from __future__ import
annotations` they are never evaluated, so their mutants cannot be
killed. For each mutant the script writes the changed module into a copy
of the repository made with `git archive`, never into the working tree,
and runs `pytest -x tests` there, less this script's own tests, with a
timeout of TIMEOUT seconds a run. A mutant survives when the tests still
pass. The copy is of the committed tree, HEAD: commit a change before
checking it.

Usage (from the repository root; a full module takes minutes to an hour):

    python tests/mutants.py src/centering/filters.py src/centering/classification.py

It prints each survivor by (file, line, operator), with "#n" after an
operator that its line holds more than once. A survivor listed in
`tests/mutants_equivalent.txt`, where each line names a mutant argued to
change no behaviour and says why, is reported as equivalent; any other
survivor is a finding, and the exit status is 1. This script is not a
test: pytest does not collect it, and neither tier-1 nor CI runs it.
`test_mutants.py` checks the mutant enumeration on a fixed snippet.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
EQUIVALENT = Path(__file__).resolve().with_name("mutants_equivalent.txt")
# Seconds a pytest run may take, about 13 times the suite's time on two
# vCPUs: a mutant that loops forever fails there. The unmutated run must
# pass within it too, so on a slower machine the script stops at the
# start instead of counting every mutant as killed.
TIMEOUT = 120

_COMPARE = {
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.Lt: ("<", ">="), ast.LtE: ("<=", ">"),
    ast.Gt: (">", "<="), ast.GtE: (">=", "<"), ast.Is: ("is", "is not"), ast.IsNot: ("is not", "is"),
    ast.In: ("in", "not in"), ast.NotIn: ("not in", "in"),
}
_BINARY = {
    ast.BitOr: ("|", "^"), ast.BitXor: ("^", "|"), ast.BitAnd: ("&", "|"), ast.LShift: ("<<", ">>"),
    ast.RShift: (">>", "<<"), ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.FloorDiv: ("//", "%"),
    ast.Mod: ("%", "//"),
}
_BOOLEAN = {ast.And: ("and", "or"), ast.Or: ("or", "and")}


class Mutant(NamedTuple):
    """One change to a module's source: bytes start..end, holding `old`
    on line `line`, become `new`; `occurrence` counts the mutants before
    it on that line with the same `operator`."""

    line: int
    start: int
    end: int
    old: str
    new: str
    operator: str
    occurrence: int


def _annotation_nodes(tree: ast.AST) -> set[int]:
    """The ids of every node inside an annotation."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return {id(inner) for root in roots for inner in ast.walk(root)}


def _find(text: bytes, token: str, start: int, end: int) -> int:
    """The offset of the operator `token` in text[start:end], the gap
    between two operands, which holds only it, blanks, brackets and
    comments."""
    # Blank out comments byte for byte, so that offsets in the gap stay
    # those of `text`: an operator never follows a "#" on its line here.
    lines = []
    for line in text[start:end].split(b"\n"):
        comment = line.find(b"#")
        lines.append(line if comment < 0 else line[:comment] + b" " * (len(line) - comment))
    at = b"\n".join(lines).find(token.encode("utf-8"))
    if at < 0:
        raise ValueError(f"no {token!r} between offsets {start} and {end}")
    return start + at


def enumerate_mutants(source: str) -> list[Mutant]:
    """Every mutant of `source`, in source order, none inside an annotation."""
    text = source.encode("utf-8")
    line_starts = [0]
    for line in text.split(b"\n")[:-1]:
        line_starts.append(line_starts[-1] + len(line) + 1)

    def offset(line: int, col: int) -> int:  # ast columns count UTF-8 bytes
        return line_starts[line - 1] + col

    def after(node: ast.AST) -> int:
        return offset(node.end_lineno, node.end_col_offset)

    def before(node: ast.AST) -> int:
        return offset(node.lineno, node.col_offset)

    tree = ast.parse(source)
    skipped = _annotation_nodes(tree)
    found: list[tuple[int, int, str, str]] = []

    def operator(old: str, new: str, start: int, end: int) -> None:
        at = _find(text, old, start, end)
        found.append((at, at + len(old.encode("utf-8")), old, new))

    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                old, new = _COMPARE[type(op)]
                # "is not" and "not in" are two words with any blank between.
                first, *second = old.split()
                at = _find(text, first, after(left), before(right))
                end = at + len(first)
                if second:
                    end = _find(text, second[0], end, before(right)) + len(second[0])
                found.append((at, end, text[at:end].decode("utf-8"), new))
        elif isinstance(node, ast.BoolOp):
            old, new = _BOOLEAN[type(node.op)]
            for left, right in zip(node.values, node.values[1:]):
                operator(old, new, after(left), before(right))
        elif isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            old, new = _BINARY[type(node.op)]
            operator(old, new, after(node.left), before(node.right))
        elif isinstance(node, ast.AugAssign) and type(node.op) in _BINARY:
            old, new = _BINARY[type(node.op)]
            operator(old + "=", new + "=", after(node.target), before(node.value))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((before(node), after(node), text[before(node) : after(node)].decode("utf-8"), str(node.value + 1)))
    mutants = []
    seen: dict[tuple[int, str], int] = {}
    for start, end, old, new in sorted(found):
        line = text.count(b"\n", 0, start) + 1
        name = f"{old} -> {new}"
        occurrence = seen.get((line, name), 0)
        seen[line, name] = occurrence + 1
        mutants.append(Mutant(line, start, end, old, new, name, occurrence))
    return mutants


def apply(source: str, mutant: Mutant) -> str:
    """`source` with `mutant`'s bytes replaced; raises ValueError when
    they do not hold its operator or constant."""
    text = source.encode("utf-8")
    if text[mutant.start : mutant.end] != mutant.old.encode("utf-8"):
        raise ValueError(f"line {mutant.line} holds {text[mutant.start : mutant.end]!r} where {mutant.old!r} was found")
    return (text[: mutant.start] + mutant.new.encode("utf-8") + text[mutant.end :]).decode("utf-8")


def key(path: str, source: str, mutant: Mutant) -> tuple[str, str, str, int]:
    """What names a mutant in the equivalents list: its file, its line's
    text, its operator and its occurrence, so that edits elsewhere in the
    file do not unlist it."""
    return path, source.splitlines()[mutant.line - 1].strip(), mutant.operator, mutant.occurrence


def load_equivalent(path: Path = EQUIVALENT) -> dict[tuple[str, str, str, int], str]:
    """The listed equivalent mutants, each with its reason. A line holds
    file, operator, occurrence, the line's text and the reason, separated
    by tabs; blank lines and lines starting with "#" are skipped."""
    listed = {}
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 5 or not fields[4].strip():
            raise ValueError(f"{path.name}:{number}: need file, operator, occurrence, line and reason, tab-separated")
        file, operator, occurrence, text, reason = fields
        listed[file, text.strip(), operator, int(occurrence)] = reason
    return listed


def _checkout(into: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", "HEAD"], cwd=ROOT, capture_output=True, check=True)
    with tempfile.TemporaryFile() as tar:
        tar.write(archive.stdout)
        tar.seek(0)
        with tarfile.open(fileobj=tar) as opened:
            # The archive is the repository's own; "data" is the safe filter where it exists.
            opened.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def _passes(copy: Path) -> bool:
    """Whether `pytest -x tests` passes in `copy`; a run over TIMEOUT fails."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    # test_mutants.py checks this script and its list against the source
    # text, which a mutant changes; it tests the tool, not the program.
    command = [sys.executable, "-B", "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--ignore=tests/test_mutants.py", "tests"]
    try:
        done = subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", help="paths under the repository root, such as src/centering/filters.py")
    args = parser.parse_args(argv)
    equivalent = load_equivalent()
    findings = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copy = Path(scratch)
        _checkout(copy)
        if not _passes(copy):
            print("the tests fail at HEAD before any mutation", file=sys.stderr)
            return 2
        for path in args.modules:
            target = copy / path
            source = target.read_text(encoding="utf-8")
            mutants = enumerate_mutants(source)
            survivors = []
            try:
                for mutant in mutants:
                    target.write_text(apply(source, mutant), encoding="utf-8")
                    shutil.rmtree(target.parent / "__pycache__", ignore_errors=True)
                    if _passes(copy):
                        survivors.append(mutant)
            finally:
                target.write_text(source, encoding="utf-8")
            print(f"{path}: {len(mutants) - len(survivors)} of {len(mutants)} mutants killed")
            # Where a line holds one operator twice, "#n" names the n-th from the left.
            repeated = {(m.line, m.operator) for m in mutants if m.occurrence}
            for mutant in survivors:
                reason = equivalent.get(key(path, source, mutant))
                findings += reason is None
                verdict = f"equivalent: {reason}" if reason is not None else "FINDING"
                nth = f" #{mutant.occurrence + 1}" if (mutant.line, mutant.operator) in repeated else ""
                print(f"  {path}:{mutant.line}: {mutant.operator}{nth}  ({verdict})")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
