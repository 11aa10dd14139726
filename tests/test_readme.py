"""README.md's examples run as it says they do."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from centering.cli import cli_main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(after: str, lang: str) -> str:
    """The first fenced `lang` block after the text `after`."""
    match = re.search(re.escape(after) + rf".*?```{lang}\n(.*?)```", README, re.S)
    assert match, f"no {lang} block after {after!r}"
    return match.group(1)


def test_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_block("## Library", "python"), {})
    assert "SHIFTING-1..." in out.getvalue()


def test_try_commands_exit_as_stated(capsys):
    lines = [line for line in _block("Try:", "sh").splitlines() if line.strip()]
    assert len(lines) == 3
    for line in lines:
        command, _, comment = line.partition("#")
        program, *argv = shlex.split(command)
        stated = re.search(r"exits (\d)", comment)
        assert program == "centering"
        assert cli_main(argv) == (int(stated.group(1)) if stated else 0), line
        assert capsys.readouterr().out


def test_corpus_format_example_runs(tmp_path, capsys):
    path = tmp_path / "demo.corpus"
    path.write_text(_block("## Corpus format", ""), encoding="utf-8")
    assert cli_main(["run", str(path)]) == 0
    assert "She drives too fast." in capsys.readouterr().out
