import re
import subprocess
import sys
from pathlib import Path

import centering
import centering.model
from support import SHAPE_MODULES, STAGE_SHAPES

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

REMOVED = (
    "Anchor",
    "CONSTRAINT3",
    "CONTRA",
    "CandidateSet",
    "ClassifiedAnchor",
    "CorpusNp",
    "DanglingContraRef",
    "DiscourseState",
    "DuplicateNpId",
    "EntityKind",
    "FILTER_NAMES",
    "RULE1",
    "Survivors",
    "build_candidates",
    "collect_pronouns",
    "filter_constraint3",
    "filter_contraindex",
    "filter_rule1",
    "preference_rank",
    "pronoun_candidates",
    "propose_cf_lists",
    "rank_markers",
    "unify_agreement",
)


def test_every_exported_name_resolves():
    assert len(set(centering.__all__)) == len(centering.__all__)
    for name in centering.__all__:
        assert getattr(centering, name) is not None, name


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in centering.__all__
        assert not hasattr(centering, name), name


def test_every_export_is_named_in_the_readme():
    readme = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    spans = re.findall(r"```.*?```|`[^`]+`", readme, re.S)
    named = {word for span in spans for word in re.findall(r"\w+", span)}
    assert [name for name in centering.__all__ if name not in named] == []


def test_marker_error_is_exported():
    assert centering.MarkerError is centering.model.MarkerError


def test_cli_import_leaves_out_dataclasses():
    # dataclasses imports inspect, ast, dis and tokenize, which nothing
    # else the CLI needs imports; every CLI start would pay for them. So
    # would it for importlib.resources, which only the bundled corpora need.
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import centering.cli; "
        "print(sorted({'dataclasses', 'inspect', 'importlib.resources'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_behaviour_tests_reach_the_stages_through_support():
    # A stage call or shape named outside support.py and the tests that
    # pin the documented shapes would make a change of shape touch it too.
    named = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(TESTS.glob("*.py"))
        if path.name not in SHAPE_MODULES
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(STAGE_SHAPES, line)
    ]
    assert named == []
