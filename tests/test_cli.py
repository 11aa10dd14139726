import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from centering import bundled_corpora
from centering.cli import cli_main


def test_run_bundled_by_id(capsys):
    code = cli_main(["run", "fig2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "RETAINING..." in out
    assert "She = Lyn, him = Carl" in out


def test_run_accepts_corpus_suffix(capsys):
    assert cli_main(["run", "fig2.corpus"]) == 0
    assert "He = Carl" in capsys.readouterr().out


def test_run_dump_anchors(capsys):
    code = cli_main(["run", "fig4", "--dump-anchors", "--explain"])
    out = capsys.readouterr().out
    assert code == 0
    assert "anchors (16):" in out
    assert "survivors: ii iii" in out
    assert "<- selected" in out


def test_run_classic_reports_tie_and_exits_nonzero(capsys):
    code = cli_main(["run", "fig4", "--classic"])
    captured = capsys.readouterr()
    assert code == 1
    assert "tie" in captured.err
    assert "SHIFTING..." in captured.out


def test_run_structured_output(capsys):
    code = cli_main(["run", "fig5", "--format", "structured"])
    out = capsys.readouterr().out
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 3
    assert records[2]["bindings"] == {"A2": "PLANCK", "A3": "FLINTSTONE"}


def test_dump_anchors_and_explain_leave_structured_output_unchanged(capsys):
    # Both flags add figure paragraphs; a structured record carries the
    # eliminations and the ranking in its own fields either way.
    for corpus in ("fig4", "fig7"):
        outputs = set()
        for flags in ([], ["--dump-anchors"], ["--explain"], ["--dump-anchors", "--explain"]):
            assert cli_main(["run", corpus, "--format", "structured", *flags]) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1 and outputs != {""}


def test_run_file_path(tmp_path, capsys):
    target = tmp_path / "tiny.corpus"
    target.write_text(
        "discourse tiny\n"
        "utterance Ann waved.\n"
        "np id=a surface=Ann kind=name gf=SUBJ agr=fem,sg,3\n",
        encoding="utf-8",
    )
    assert cli_main(["run", str(target)]) == 0
    assert "CONTINUING..." in capsys.readouterr().out


def test_check_and_run_accept_a_byte_order_mark(tmp_path, capsys):
    # As an editor that saves "UTF-8 with BOM" writes the file.
    text = bundled_corpora()["fig2"]
    plain, marked = tmp_path / "plain.corpus", tmp_path / "marked.corpus"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    for command in ("check", "run"):
        assert cli_main([command, str(plain)]) == 0
        expected = capsys.readouterr()
        assert cli_main([command, str(marked)]) == 0
        assert capsys.readouterr() == expected and expected.out


def test_run_unresolved_pronoun_exits_one(tmp_path, capsys):
    target = tmp_path / "bad.corpus"
    target.write_text(
        "discourse bad\n"
        "utterance She left.\n"
        "np id=a surface=She kind=pronoun gf=SUBJ agr=fem,sg,3\n",
        encoding="utf-8",
    )
    code = cli_main(["run", str(target)])
    captured = capsys.readouterr()
    assert code == 1
    assert "unresolvable-pronoun" in captured.err


def test_run_over_budget_utterance_exits_one(tmp_path, capsys):
    # 7 * 6**8 anchors: check accepts the corpus, and run reports the
    # utterance instead of building them.
    names = ("Ann", "Ben", "Cal", "Dee", "Eve", "Fay")
    target = tmp_path / "big.corpus"
    target.write_text(
        "discourse big\nutterance Six met.\n"
        + "".join(f"np id=n{i} surface={n} kind=name gf=OBJ\n" for i, n in enumerate(names))
        + "utterance They saw them.\n"
        + "".join(f"np id=p{i} surface=they kind=pronoun gf=OBJ\n" for i in range(8)),
        encoding="utf-8",
    )
    assert cli_main(["check", str(target)]) == 0
    assert capsys.readouterr().out == "ok: big: 2 utterances\n"
    assert cli_main(["run", str(target)]) == 1
    assert capsys.readouterr().err == (
        "diagnostic: U2: anchor-budget: 11,757,312 anchors would exceed the limit of 1,000,000\n"
    )


def test_check_and_run_report_a_repeated_index_alike(tmp_path, capsys):
    target = tmp_path / "twice.corpus"
    target.write_text(
        "discourse d\nutterance x.\nnp id=a surface=she kind=pronoun gf=SUBJ index=A1\n"
        "utterance y.\nnp id=b surface=her kind=pronoun gf=SUBJ index=A1\n",
        encoding="utf-8",
    )
    errors = []
    for command in ("check", "run"):
        assert cli_main([command, str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: line 5: index: ")
        errors.append(err)
    assert errors[0] == errors[1]


def test_run_reads_an_np_line_in_any_layout(tmp_path, capsys):
    # Fields out of order, a two-piece value, a backslash, a double gap and
    # tabs after a directive keyword give the canonical layout's trace.
    canonical = (
        "discourse layout\n"
        "utterance Ann read it's manual on a\\b paths.\n"
        "np id=ann surface=Ann kind=name gf=SUBJ agr=fem,sg,3 contra=log\n"
        "np id=log surface=\"it's manual\" kind=definite gf=OBJ agr=neut,sg,3 contra=ann\n"
        "np id=path surface='a\\b' kind=indefinite gf=ADJ agr=neut,pl,3\n"
        "utterance She liked it.\n"
        "np id=she surface=She kind=pronoun gf=SUBJ agr=fem,sg,3 contra=it\n"
        "np id=it surface=it kind=pronoun gf=OBJ agr=neut,sg,3 contra=she\n"
    )
    relaid = (
        "discourse layout\n"
        "utterance Ann read it's manual on a\\b paths.\n"
        "np\tkind=name gf=SUBJ id=ann surface=Ann agr=fem,sg,3 contra=log\n"
        "np surface='it'\"'\"'s manual' id=log gf=OBJ kind=definite agr=neut,sg,3 contra=ann\n"
        "np id=path  surface=a\\\\b kind=indefinite gf=ADJ agr=neut,pl,3\n"
        "utterance\tShe liked it.\n"
        "np id=she surface=She kind=pronoun gf=SUBJ agr=fem,sg,3 contra=it\n"
        "np gf=OBJ id=it kind=pronoun surface=it agr=neut,sg,3 contra=she\n"
    )
    outcomes = []
    for layout, text in (("canonical", canonical), ("relaid", relaid)):
        target = tmp_path / f"{layout}.corpus"
        target.write_text(text, encoding="utf-8")
        code = cli_main(["run", str(target)])
        outcomes.append((code, capsys.readouterr().out))
    assert outcomes[0] == outcomes[1] and outcomes[0][0] < 2
    assert "Cf: ([ANN:Ann] [IT-S-MANUAL:it's manual] [X1:a\\b])" in outcomes[0][1]


def test_check_valid_corpus(capsys):
    assert cli_main(["check", "fig2"]) == 0
    assert "ok: fig2: 4 utterances" in capsys.readouterr().out


def test_check_schema_error_exits_two(tmp_path, capsys):
    target = tmp_path / "broken.corpus"
    target.write_text(
        "discourse broken\n"
        "utterance x.\n"
        "np id=a surface=x kind=noun gf=SUBJ\n",
        encoding="utf-8",
    )
    code = cli_main(["check", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert "line 3" in captured.err


def test_check_rejects_empty_entity_values(tmp_path, capsys):
    # Both names would otherwise share entity "" and, contraindexed, leave
    # no viable anchor while check said ok.
    target = tmp_path / "empty.corpus"
    target.write_text(
        "discourse empty\n"
        "utterance Ann met Bo.\n"
        "np id=a surface=Ann kind=name gf=SUBJ entity= contra=b\n"
        "np id=b surface=Bo kind=name gf=OBJ entity=\n",
        encoding="utf-8",
    )
    assert cli_main(["check", str(target)]) == 2
    assert "line 3: entity:" in capsys.readouterr().err


def test_check_rejects_a_comma_in_an_np_id(tmp_path, capsys):
    # Its sibling's contra list would name "a,b", which re-parses as two ids.
    target = tmp_path / "comma.corpus"
    target.write_text(
        "discourse comma\n"
        "utterance Ann met Bo.\n"
        'np id="a,b" surface=Ann kind=name gf=SUBJ contra=c\n'
        "np id=c surface=Bo kind=name gf=OBJ\n",
        encoding="utf-8",
    )
    assert cli_main(["check", str(target)]) == 2
    assert "line 3: id:" in capsys.readouterr().err


def test_check_rejects_mode_before_discourse_or_repeated(tmp_path, capsys):
    target = tmp_path / "modes.corpus"
    target.write_text(
        "mode classic\n"
        "discourse d\n"
        "mode extended\n"
        "mode classic\n"
        "utterance Ann waved.\n"
        "np id=a surface=Ann kind=name gf=SUBJ\n",
        encoding="utf-8",
    )
    assert cli_main(["check", str(target)]) == 2
    assert "line 1:" in capsys.readouterr().err
    target.write_text("\n".join(target.read_text(encoding="utf-8").splitlines()[1:]), encoding="utf-8")
    assert cli_main(["check", str(target)]) == 2
    assert "line 3:" in capsys.readouterr().err


def test_missing_corpus_exits_two(capsys):
    assert cli_main(["run", "no-such-file.corpus"]) == 2
    assert "error" in capsys.readouterr().err


def test_corpus_list_shows_all_bundled(capsys):
    assert cli_main(["corpus", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig2", "fig4", "fig5", "fig6", "fig7"):
        assert name in out


def test_bad_flag_raises_usage_error():
    with pytest.raises(SystemExit) as err:
        cli_main(["run", "fig2", "--bogus"])
    assert err.value.code == 2


def test_non_utf8_file_is_a_corpus_error_for_run_and_check(tmp_path, capsys):
    target = tmp_path / "latin1.corpus"
    target.write_bytes("discourse d\nutterance Zoë waved.\n".encode("latin-1"))
    for command in ("run", "check"):
        assert cli_main([command, str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def test_explicit_index_taken_earlier_by_allocation_still_runs(tmp_path, capsys):
    target = tmp_path / "late-index.corpus"
    target.write_text(
        "discourse late\n"
        "utterance Carl waved.\n"
        "np id=c surface=Carl kind=name gf=SUBJ agr=masc,sg,3\n"
        "utterance He smiled.\n"
        "np id=h surface=He kind=pronoun gf=SUBJ agr=masc,sg,3\n"
        "utterance He left.\n"
        "np id=h surface=He kind=pronoun gf=SUBJ agr=masc,sg,3 index=A1\n",
        encoding="utf-8",
    )
    assert cli_main(["check", str(target)]) == 0
    assert cli_main(["run", str(target), "--format", "structured"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()[1:]]
    # The unindexed pronoun skips A1, which U3 reserves.
    assert [r["bindings"] for r in records] == [{}, {"A2": "CARL"}, {"A1": "CARL"}]


def test_fresh_x_index_skips_an_entity_id_in_use(tmp_path, capsys):
    target = tmp_path / "x-entity.corpus"
    target.write_text(
        "discourse merge\n"
        "utterance Ann saw a car.\n"
        "np id=a surface=Ann kind=name gf=SUBJ agr=fem,sg,3 entity=X1\n"
        'np id=c surface="a car" kind=indefinite gf=OBJ agr=neut,sg,3\n'
        "utterance It was red.\n"
        "np id=i surface=It kind=pronoun gf=SUBJ agr=neut,sg,3\n",
        encoding="utf-8",
    )
    assert cli_main(["run", str(target)]) == 0
    out = capsys.readouterr().out
    assert "Cf: ([X1:Ann] [X2:a car])" in out
    assert "Cb: [X2:a car]" in out


def test_explicit_x_index_that_is_an_entity_id_is_a_corpus_error(tmp_path, capsys):
    target = tmp_path / "x-entity.corpus"
    target.write_text(
        "discourse merge\n"
        "utterance Ann saw a car.\n"
        "np id=a surface=Ann kind=name gf=SUBJ agr=fem,sg,3 entity=X1\n"
        'np id=c surface="a car" kind=indefinite gf=OBJ agr=neut,sg,3 index=X1\n',
        encoding="utf-8",
    )
    for command in ("check", "run"):
        assert cli_main([command, str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: line 4: index: index X1 is also an entity id")


def _random_corpus(rng):
    """A small corpus of names, pronouns and indefinites, some of them with
    explicit indices (possibly clashing ones, which `check` must reject)."""
    lines = ["discourse r"]
    for u in range(rng.randint(1, 4)):
        lines.append(f"utterance u{u}.")
        ids = [f"n{j}" for j in range(rng.randint(1, 3))]
        for j, np_id in enumerate(ids):
            kind = rng.choice(("name", "pronoun", "indefinite"))
            gender = rng.choice(("fem", "masc", "-"))
            fields = [f"id={np_id}", f"kind={kind}", f"gf={rng.choice(('SUBJ', 'OBJ', 'ADJ'))}"]
            if kind == "name":
                fields.append(f"surface={rng.choice(('Ann', 'Bo', 'Cy'))}")
            else:
                fields.append("surface=it")
                if rng.random() < 0.4:
                    fields.append(f"index={'A' if kind == 'pronoun' else 'X'}{rng.randint(1, 5)}")
            fields.append(f"agr={gender},sg,3")
            others = [o for o in ids if o != np_id]
            if others and rng.random() < 0.3:
                fields.append(f"contra={rng.choice(others)}")
            lines.append("np " + " ".join(fields))
    return "\n".join(lines) + "\n"


def test_every_corpus_check_accepts_also_runs(tmp_path, capsys):
    rng = random.Random(4242)
    target = tmp_path / "random.corpus"
    accepted = 0
    for _ in range(300):
        target.write_text(_random_corpus(rng), encoding="utf-8")
        if cli_main(["check", str(target)]) != 0:
            continue
        accepted += 1
        assert cli_main(["run", str(target)]) in (0, 1), target.read_text()
        capsys.readouterr()
    assert accepted > 100


OPTION_DIGESTS = json.loads((Path(__file__).parent / "goldens" / "options.sha256.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("options", sorted(OPTION_DIGESTS))
def test_other_output_modes_match_their_digests(options):
    # The goldens pin the default figure trace and the extended structured
    # one; these digests pin stdout, stderr and the exit code of the rest.
    digests = OPTION_DIGESTS[options]
    assert set(digests) == set(bundled_corpora())
    for corpus, expected in digests.items():
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli_main(["run", corpus, *options.split()])
        got = {
            "stdout": hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest(),
            "stderr": hashlib.sha256(stderr.getvalue().encode("utf-8")).hexdigest(),
            "exit": code,
        }
        assert got == expected, (corpus, options)
