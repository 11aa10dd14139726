"""The mutation script's enumeration, on a fixed snippet: no subprocess,
no clock. The script itself (`tests/mutants.py`) is run by hand."""

import ast

import pytest

from mutants import EQUIVALENT, ROOT, apply, enumerate_mutants, key, load_equivalent

SNIPPET = '''from __future__ import annotations


def f(a: int = 1, b: list[int] | None = None) -> int | None:
    x: int | str = a | 2  # a | 3 in a comment is no mutant
    if a == 0 and b is not None:
        return a << 1
    x ^= (a
          - 1)
    return x if a not in (b or ()) else None
'''


def test_every_operator_and_int_outside_annotations_is_one_mutant():
    found = [(m.line, m.operator, m.occurrence) for m in enumerate_mutants(SNIPPET)]
    assert found == [
        (4, "1 -> 2", 0),
        (5, "| -> ^", 0),
        (5, "2 -> 3", 0),
        (6, "== -> !=", 0),
        (6, "0 -> 1", 0),
        (6, "and -> or", 0),
        (6, "is not -> is", 0),
        (7, "<< -> >>", 0),
        (7, "1 -> 2", 0),
        (8, "^= -> |=", 0),
        (9, "- -> +", 0),
        (9, "1 -> 2", 0),
        (10, "not in -> in", 0),
        (10, "or -> and", 0),
    ]


def test_a_mutant_changes_its_token_and_nothing_else():
    mutants = enumerate_mutants(SNIPPET)
    lines = SNIPPET.splitlines()
    for mutant in mutants:
        changed = apply(SNIPPET, mutant)
        assert ast.dump(ast.parse(changed)) != ast.dump(ast.parse(SNIPPET))
        assert changed.splitlines()[: mutant.line - 1] == lines[: mutant.line - 1]
        assert changed.splitlines()[mutant.line :] == lines[mutant.line :]
    compare = next(m for m in mutants if m.operator == "is not -> is")
    assert apply(SNIPPET, compare).splitlines()[5] == "    if a == 0 and b is None:"
    assert key("snippet.py", SNIPPET, compare) == ("snippet.py", "if a == 0 and b is not None:", "is not -> is", 0)


def test_two_equal_mutants_on_a_line_are_told_apart():
    found = [(m.operator, m.occurrence) for m in enumerate_mutants("y = (1 + 1) + 1\n")]
    assert found == [("1 -> 2", 0), ("+ -> -", 0), ("1 -> 2", 1), ("+ -> -", 1), ("1 -> 2", 2)]


def test_a_comment_before_the_operator_shifts_no_offset():
    # Comments on earlier lines of the gap between two operands, holding
    # the operator's own token and a non-ASCII letter: each mutant still
    # changes its operator, and one whose bytes hold something else is refused.
    source = 'y = (a  # "+", "is", Ü\n     + b) or (c  # is not\n     is not d)\n'
    mutants = enumerate_mutants(source)
    assert [(m.line, m.operator) for m in mutants] == [(2, "+ -> -"), (2, "or -> and"), (3, "is not -> is")]
    assert [apply(source, m).splitlines()[m.line - 1] for m in mutants] == [
        "     - b) or (c  # is not",
        "     + b) and (c  # is not",
        "     is d)",
    ]
    for mutant in mutants:
        with pytest.raises(ValueError, match=f"^line {mutant.line} holds "):
            apply(source, mutant._replace(start=mutant.start - 1, end=mutant.end - 1))


def test_each_listed_equivalent_is_a_mutant_of_the_program_with_a_reason():
    # A listed mutant whose line changed is no longer argued for: it must
    # be argued again or dropped.
    for (path, text, operator, occurrence), reason in load_equivalent(EQUIVALENT).items():
        source = (ROOT / path).read_text(encoding="utf-8")
        keys = {key(path, source, mutant) for mutant in enumerate_mutants(source)}
        assert (path, text, operator, occurrence) in keys and reason.strip(), (path, text, operator)
