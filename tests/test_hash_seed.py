"""Traces and pickled results do not depend on the interpreter's hash seed.

The renderer keys caches by id() and the enums hash by identity, so a
trace could come to depend on the process. Each test runs `sys.executable`
children under PYTHONHASHSEED 0 and 1 and compares what they produce.
The children turn warnings into errors, so these renders of every bundled
corpus also fail on any warning the package raises.
"""

import os
import subprocess
import sys
from pathlib import Path

from centering import Mode, bundled_corpora

SRC = Path(__file__).resolve().parents[1] / "src"

# The flag sets rendered for every bundled corpus, in both modes.
FLAG_SETS = (
    ("--dump-anchors", "--explain"),
    ("--classic", "--dump-anchors", "--explain"),
    ("--format", "structured"),
    ("--classic", "--format", "structured"),
)

TRACES = f"""
import io, sys
from contextlib import redirect_stderr, redirect_stdout
from centering import bundled_corpora
from centering.cli import cli_main

for corpus in bundled_corpora():
    for flags in {FLAG_SETS!r}:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli_main(["run", corpus, *flags])
        print("==", corpus, *flags, "exit", code)
        sys.stdout.write(out.getvalue())
"""

DUMP = """
import pickle, sys
from centering import Mode, bundled_corpora, load_bundled, process_document

results = {
    (name, mode): process_document(load_bundled(name), mode) for name in bundled_corpora() for mode in Mode
}
with open(sys.argv[1], "wb") as f:
    pickle.dump(results, f)
"""

LOAD = """
import pickle, sys
from centering import Mode, bundled_corpora, load_bundled, process_document, render_trace

with open(sys.argv[1], "rb") as f:
    loaded = pickle.load(f)
assert sorted(loaded, key=repr) == sorted(((n, m) for n in bundled_corpora() for m in Mode), key=repr)
options = ({"format": "figure", "dump_anchors": True, "explain": True}, {"format": "structured"})
for (name, mode), results in loaded.items():
    fresh = process_document(load_bundled(name), mode)
    assert results == fresh, (name, mode)
    for option in options:
        assert render_trace(results, **option) == render_trace(fresh, **option), (name, mode, option)
print(len(loaded), "results render alike after unpickling")
"""


def _run(seed: int, script: str, *args: str) -> str:
    # Under -W error -X dev a warning is an error; one raised where no
    # caller can catch it (an unclosed file's, at collection) is only
    # reported on stderr, so stderr must stay empty.
    env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-W", "error", "-X", "dev", "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0 and done.stderr == "", done.stderr
    return done.stdout


def test_traces_are_independent_of_the_hash_seed():
    # Exit 1 (diagnostics) is a completed run; 2 would be a corpus error.
    first, second = _run(0, TRACES), _run(1, TRACES)
    assert first == second
    codes = [line.rsplit(" ", 1)[1] for line in first.splitlines() if line.startswith("== ")]
    assert len(codes) == len(bundled_corpora()) * len(FLAG_SETS) and set(codes) <= {"0", "1"}


def test_pickled_results_load_under_another_hash_seed(tmp_path):
    # Every anchor grid, verdict mask and ranking is rendered from the
    # restored values, and compared with a fresh run's.
    pickled = tmp_path / "results.pickle"
    _run(0, DUMP, str(pickled))
    count = len(bundled_corpora()) * len(Mode)
    assert _run(1, LOAD, str(pickled)) == f"{count} results render alike after unpickling\n"
