import json
import random
import warnings
from dataclasses import replace

import pytest

from sapphire_novelty import (
    ConstructLevel,
    CorpusFormatError,
    CorpusWarning,
    ProblemCorpus,
    ProblemSapphire,
    Provenance,
    import_survey_csv,
    load_corpus,
    make_constructs,
    save_corpus,
)
from sapphire_novelty.corpus_store import problem_from_record
from sapphire_novelty.data import current_corpus_path, past_corpus_path

from conftest import random_corpus


def write_lines(path, *lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def record(problem_id="PS1", provenance="past", **overrides):
    base = {
        "id": problem_id,
        "label": "spilling",
        "provenance": provenance,
        "source": "patent",
        "context": "kettle",
        "constructs": {"action": "spilling of liquid"},
    }
    base.update(overrides)
    return json.dumps(base, ensure_ascii=False)


class TestLoadCorpus:
    def test_bundled_past_file(self):
        corpus = load_corpus(past_corpus_path(), Provenance.PAST)
        assert [p.id for p in corpus.problems] == ["PS1", "PS2"]
        assert corpus.role is Provenance.PAST
        assert corpus.name == "kettle_past"

    def test_bundled_current_file(self):
        corpus = load_corpus(current_corpus_path(), Provenance.CURRENT)
        assert [p.id for p in corpus.problems] == ["PS3", "PS4", "PS5"]

    def test_loading_preserves_file_order(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", record("B"), record("A"), record("C"))
        corpus = load_corpus(path, Provenance.PAST)
        assert [p.id for p in corpus.problems] == ["B", "A", "C"]

    def test_empty_file_warns_and_yields_empty_corpus(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.warns(CorpusWarning, match="empty"):
            corpus = load_corpus(path, Provenance.PAST)
        assert corpus.problems == ()

    def test_a_role_given_as_text_fails_at_its_cause(self):
        """The role rule runs before any record is read; it once failed in the
        provenance check with an AttributeError on the text's ``value``."""
        for path in (past_corpus_path(), current_corpus_path()):
            with pytest.raises(ValueError, match=r"^role 'past' is not a Provenance$"):
                load_corpus(path, "past")

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_corpus(tmp_path / "nope.jsonl", Provenance.PAST)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = "".join(line + "\n" for line in (record("A"), record("B")))
        (tmp_path / "bom").mkdir()
        (tmp_path / "bom" / "c.jsonl").write_text(text, encoding="utf-8-sig")
        (tmp_path / "c.jsonl").write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with_bom = load_corpus(tmp_path / "bom" / "c.jsonl", Provenance.PAST, strict=True)
        assert with_bom == load_corpus(tmp_path / "c.jsonl", Provenance.PAST)

    def test_malformed_json_strict_names_line(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", record("A"), "{not json")
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_corpus(path, Provenance.PAST, strict=True)

    def test_malformed_json_lenient_skips_with_warning(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", record("A"), "{not json")
        with pytest.warns(CorpusWarning, match="line 2"):
            corpus = load_corpus(path, Provenance.PAST, strict=False)
        assert [p.id for p in corpus.problems] == ["A"]

    def test_non_object_line_lenient_warning_ends_in_skipped(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", record("A"), "[1, 2]")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            corpus = load_corpus(path, Provenance.PAST, strict=False)
        assert [str(w.message) for w in caught] == [
            f"{path}: line 2: expected a JSON object, got list (skipped)"
        ]
        assert [p.id for p in corpus.problems] == ["A"]

    def test_duplicate_id_strict_names_both_lines(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", record("PS1"), record("PS1"))
        with pytest.raises(CorpusFormatError, match="line 2.*duplicate id.*line 1"):
            load_corpus(path, Provenance.PAST, strict=True)

    def test_duplicate_id_lenient_keeps_first(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", record("PS1"), record("PS1"))
        with pytest.warns(CorpusWarning, match="duplicate"):
            corpus = load_corpus(path, Provenance.PAST, strict=False)
        assert len(corpus.problems) == 1

    def test_blank_interior_line_strict(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", record("A"), "", record("B"))
        with pytest.raises(CorpusFormatError, match="blank interior"):
            load_corpus(path, Provenance.PAST, strict=True)

    def test_trailing_newline_is_not_a_blank_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(record("A") + "\n", encoding="utf-8")
        corpus = load_corpus(path, Provenance.PAST, strict=True)
        assert len(corpus.problems) == 1

    def test_unknown_top_level_key_strict_rejected(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", record("A", extra="x"))
        with pytest.raises(CorpusFormatError, match="unknown key"):
            load_corpus(path, Provenance.PAST, strict=True)

    def test_unknown_top_level_key_lenient_warned_and_ignored(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", record("A", extra="x"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            corpus = load_corpus(path, Provenance.PAST, strict=False)
        assert [str(w.message) for w in caught] == [f"{path}: line 1: unknown key(s) ['extra'] (ignored)"]
        assert corpus.problems[0].id == "A"

    def test_unknown_construct_key_strict_rejected(self, tmp_path):
        path = write_lines(
            tmp_path / "c.jsonl",
            record("A", constructs={"action": "spill", "organs": "x"}),
        )
        with pytest.raises(CorpusFormatError) as raised:
            load_corpus(path, Provenance.PAST, strict=True)
        assert str(raised.value) == f"{path}: line 1: unknown construct key 'organs'"

    def test_invalid_record_strict_names_line_and_violation(self, tmp_path):
        path = write_lines(
            tmp_path / "c.jsonl", record("A"), record("B", constructs={"action": "  "})
        )
        with pytest.raises(CorpusFormatError, match="line 2.*[Aa]ction"):
            load_corpus(path, Provenance.PAST, strict=True)

    def test_invalid_record_lenient_skipped(self, tmp_path):
        path = write_lines(
            tmp_path / "c.jsonl", record("A"), record("B", constructs={"action": "  "})
        )
        with pytest.warns(CorpusWarning):
            corpus = load_corpus(path, Provenance.PAST, strict=False)
        assert [p.id for p in corpus.problems] == ["A"]

    def test_provenance_must_match_role(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", record("A", provenance="current"))
        with pytest.raises(CorpusFormatError, match="does not match"):
            load_corpus(path, Provenance.PAST, strict=True)

    def test_invalid_provenance_value(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", record("A", provenance="historic"))
        with pytest.raises(CorpusFormatError, match="provenance"):
            load_corpus(path, Provenance.PAST, strict=True)


class TestProblemFromRecord:
    def parse(self, strict=True, **overrides):
        parsed = json.loads(record("A", **overrides))
        return problem_from_record(parsed, path="c.jsonl", line_no=3, strict=strict)

    def test_constructs_must_be_an_object(self):
        with pytest.raises(CorpusFormatError, match="line 3: 'constructs' must be an object"):
            self.parse(constructs=["spilling of liquid"])

    def test_construct_value_must_be_a_string(self):
        with pytest.raises(CorpusFormatError, match="line 3: construct 'effect' must be a string"):
            self.parse(constructs={"action": "spilling of liquid", "effect": 1})

    @pytest.mark.parametrize("field", ["id", "label", "source", "context"])
    def test_text_fields_must_be_strings(self, field):
        with pytest.raises(CorpusFormatError, match=f"line 3: '{field}' must be a string"):
            self.parse(**{field: 7})

    def test_lenient_unknown_construct_key_is_ignored_with_warning(self):
        constructs = {"action": "spilling of liquid", "smell": "burnt"}
        with pytest.warns(CorpusWarning, match=r"^c\.jsonl: line 3: unknown construct key 'smell' \(ignored\)$"):
            problem = self.parse(strict=False, constructs=constructs)
        assert dict(problem.constructs) == {ConstructLevel.ACTION: "spilling of liquid"}


class TestSaveCorpus:
    def build(self, name="kettle"):
        problems = (
            ProblemSapphire(
                id="P1",
                label="overboiling café kettle",
                provenance=Provenance.PAST,
                source="patent FR-123",
                context="electric kettle",
                constructs=make_constructs(
                    action="spilling of liquid", state_change="still to moving"
                ),
            ),
            ProblemSapphire(
                id="P2",
                label="steam burns",
                provenance=Provenance.PAST,
                constructs=make_constructs(action="steam escaping"),
            ),
        )
        return ProblemCorpus(name=name, role=Provenance.PAST, problems=problems)

    def test_round_trip_is_identity(self, tmp_path):
        corpus = self.build()
        path = tmp_path / f"{corpus.name}.jsonl"
        save_corpus(corpus, path)
        assert load_corpus(path, Provenance.PAST, strict=True) == corpus

    def test_one_line_per_problem(self, tmp_path):
        corpus = self.build()
        path = tmp_path / "out.jsonl"
        save_corpus(corpus, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2

    def test_empty_corpus_writes_empty_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        save_corpus(ProblemCorpus("out", Provenance.PAST, ()), path)
        assert path.read_text(encoding="utf-8") == ""

    def test_keys_emitted_in_canonical_order(self, tmp_path):
        corpus = self.build()
        path = tmp_path / "out.jsonl"
        save_corpus(corpus, path)
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert list(json.loads(first)) == [
            "id", "label", "provenance", "source", "context", "constructs",
        ]

    def test_strict_reload_of_saved_file_is_silent(self, tmp_path):
        corpus = self.build()
        path = tmp_path / f"{corpus.name}.jsonl"
        save_corpus(corpus, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load_corpus(path, Provenance.PAST, strict=True)

    def test_refuses_invalid_corpus(self, tmp_path):
        twin = self.build()
        broken = ProblemCorpus("x", Provenance.PAST, twin.problems + twin.problems)
        with pytest.raises(ValueError, match="duplicate"):
            save_corpus(broken, tmp_path / "out.jsonl")
        blank = replace(twin.problems[1], constructs=make_constructs(action="  "))
        with pytest.raises(
            ValueError,
            match=r"^refusing to save an invalid corpus: problems\[0\]\.constructs\[action\]: "
            "the Action construct is mandatory and must be non-empty$",
        ):
            save_corpus(ProblemCorpus("x", Provenance.PAST, (blank,)), tmp_path / "out.jsonl")
        assert not (tmp_path / "out.jsonl").exists()

    def test_random_corpora_round_trip(self, tmp_path):
        rng = random.Random(67)
        for index in range(20):
            corpus = random_corpus(rng, f"corpus{index}", Provenance.CURRENT, rng.randint(1, 6))
            path = tmp_path / f"{corpus.name}.jsonl"
            save_corpus(corpus, path)
            assert load_corpus(path, Provenance.CURRENT, strict=True) == corpus


SURVEY_HEADER = "id,label,source,action,state_change,phenomena,effect,input,organ,parts"


class TestImportSurveyCsv:
    def test_three_row_survey(self, tmp_path):
        path = write_lines(
            tmp_path / "survey.csv",
            SURVEY_HEADER,
            'R1,When water overboils it spills out,respondent 4,spilling of liquid,'
            "static to movable liquid,overboiling,,mains power,,",
            "R2,Local heating from scrubbing roughness,respondent 7,local heating of base,"
            ",localized boiling,,,rough base,",
            "R3,Heating does not stop,respondent 9,heating does not stop,,,,,,"
            "thermostat and switch",
        )
        corpus = import_survey_csv(path, context="electric kettle")
        assert corpus.role is Provenance.CURRENT
        assert [p.id for p in corpus.problems] == ["R1", "R2", "R3"]
        assert all(p.provenance is Provenance.CURRENT for p in corpus.problems)
        assert all(p.context == "electric kettle" for p in corpus.problems)
        first = corpus.problems[0]
        assert first.constructs[ConstructLevel.STATE_CHANGE] == "static to movable liquid"
        assert ConstructLevel.EFFECT not in first.constructs

    def test_empty_cells_become_absent_levels(self, tmp_path):
        path = write_lines(
            tmp_path / "survey.csv", SURVEY_HEADER, "R1,label,src,spill,,,,,,"
        )
        corpus = import_survey_csv(path, context="kettle")
        assert set(corpus.problems[0].constructs) == {ConstructLevel.ACTION}

    def test_auto_ids_from_data_row_number(self, tmp_path):
        path = write_lines(
            tmp_path / "survey.csv",
            SURVEY_HEADER,
            ",first,src,spill a,,,,,,",
            ",second,src,spill b,,,,,,",
        )
        corpus = import_survey_csv(path, context="kettle")
        assert [p.id for p in corpus.problems] == ["CUR-1", "CUR-2"]

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a byte-order mark.
        text = f"{SURVEY_HEADER}\r\nR1,label,src,spill,,,,,,\r\n,second,src,boil,,,,,,\r\n"
        (tmp_path / "bom.csv").write_text(text, encoding="utf-8-sig")
        (tmp_path / "plain.csv").write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with_bom = import_survey_csv(tmp_path / "bom.csv", context="kettle", strict=True)
        assert with_bom.problems == import_survey_csv(tmp_path / "plain.csv", context="kettle").problems
        assert [p.id for p in with_bom.problems] == ["R1", "CUR-2"]

    def test_header_only_warns_and_yields_empty_corpus(self, tmp_path):
        path = write_lines(tmp_path / "survey.csv", SURVEY_HEADER)
        with pytest.warns(CorpusWarning, match="no data rows"):
            corpus = import_survey_csv(path, context="kettle")
        assert corpus.problems == ()

    def test_blank_action_strict_names_row(self, tmp_path):
        path = write_lines(
            tmp_path / "survey.csv",
            SURVEY_HEADER,
            "R1,label,src,spill,,,,,,",
            "R2,label,src,,,,,,,",
        )
        with pytest.raises(CorpusFormatError, match="row 2.*action"):
            import_survey_csv(path, context="kettle", strict=True)

    def test_blank_action_lenient_skips_row(self, tmp_path):
        path = write_lines(
            tmp_path / "survey.csv",
            SURVEY_HEADER,
            "R1,label,src,spill,,,,,,",
            "R2,label,src,,,,,,,",
        )
        with pytest.warns(CorpusWarning, match="row 2"):
            corpus = import_survey_csv(path, context="kettle", strict=False)
        assert [p.id for p in corpus.problems] == ["R1"]

    def test_duplicate_id_strict_names_rows(self, tmp_path):
        path = write_lines(
            tmp_path / "survey.csv",
            SURVEY_HEADER,
            "R1,first,src,spill a,,,,,,",
            "R1,second,src,spill b,,,,,,",
        )
        with pytest.raises(CorpusFormatError, match="row 2.*duplicate id.*row 1"):
            import_survey_csv(path, context="kettle", strict=True)

    def test_duplicate_id_lenient_keeps_first(self, tmp_path):
        path = write_lines(
            tmp_path / "survey.csv",
            SURVEY_HEADER,
            "R1,first,src,spill a,,,,,,",
            "R1,second,src,spill b,,,,,,",
        )
        with pytest.warns(CorpusWarning, match="duplicate id"):
            corpus = import_survey_csv(path, context="kettle", strict=False)
        assert [p.label for p in corpus.problems] == ["first"]

    def test_whitespace_id_strict_names_row(self, tmp_path):
        path = write_lines(tmp_path / "survey.csv", SURVEY_HEADER, "R 1,label,src,spill,,,,,,")
        with pytest.raises(
            CorpusFormatError, match="row 1: id: must not contain whitespace"
        ):
            import_survey_csv(path, context="kettle", strict=True)

    def test_whitespace_id_lenient_skips_row_and_the_rest_saves(self, tmp_path):
        path = write_lines(
            tmp_path / "survey.csv",
            SURVEY_HEADER,
            "R 1,label,src,spill a,,,,,,",
            "R2,label,src,spill b,,,,,,",
        )
        with pytest.warns(CorpusWarning, match=r"row 1: .*whitespace.*\(skipped\)$"):
            corpus = import_survey_csv(path, context="kettle", strict=False)
        assert [p.id for p in corpus.problems] == ["R2"]
        save_corpus(corpus, tmp_path / "survey.jsonl")

    def test_lenient_skips_use_the_jsonl_record_messages(self, tmp_path):
        path = write_lines(
            tmp_path / "survey.csv",
            SURVEY_HEADER,
            "R1,label,src,spill,,,,,,",
            "R2,label,src,,,,,,,",
            "R1,label,src,spill again,,,,,,",
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            corpus = import_survey_csv(path, context="kettle", strict=False)
        assert [str(w.message) for w in caught] == [
            f"{path}: row 2: constructs[action]: "
            "the Action construct is mandatory and must be non-empty (skipped)",
            f"{path}: row 3: id: duplicate id 'R1' (first on row 1) (skipped)",
        ]
        assert [p.id for p in corpus.problems] == ["R1"]

    def test_all_rows_skipped_is_not_reported_as_no_data_rows(self, tmp_path):
        path = write_lines(tmp_path / "survey.csv", SURVEY_HEADER, "R 1,label,src,spill,,,,,,")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            corpus = import_survey_csv(path, context="kettle", strict=False)
        assert [str(w.message) for w in caught] == [
            f"{path}: row 1: id: must not contain whitespace: 'R 1' (skipped)"
        ]
        assert corpus.problems == ()

    def test_missing_action_column_rejected(self, tmp_path):
        path = write_lines(tmp_path / "survey.csv", "id,label,source", "R1,x,y")
        with pytest.raises(CorpusFormatError, match="action"):
            import_survey_csv(path, context="kettle")

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "survey.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="header"):
            import_survey_csv(path, context="kettle")

    @pytest.mark.parametrize(
        "extra, cells, unknown",
        [(",notes", ",note", "['notes']"), (",notes,notes,,", ",a,b,,", "['notes', 'notes', '', '']")],
        ids=["once", "repeated-and-blank"],
    )
    def test_unknown_column_warned(self, tmp_path, extra, cells, unknown):
        path = write_lines(tmp_path / "survey.csv", SURVEY_HEADER + extra, "R1,l,s,spill,,,,,," + cells)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            corpus = import_survey_csv(path, context="kettle")
        assert [str(w.message) for w in caught] == [f"{path}: ignoring unknown column(s) {unknown}"]
        assert corpus.problems[0].id == "R1"
        assert corpus.problems[0].constructs == {ConstructLevel.ACTION: "spill"}

    @pytest.mark.parametrize(
        "header, row, repeated",
        [
            ("id,label,source,action,action", "C1,l,s,spill liquid,heat water", ["action"]),
            ("id,id,label,source,action", "C1,C2,l,s,spill", ["id"]),
            (SURVEY_HEADER + ",effect,id", "R1,l,s,spill,,,,,,,boil,R2", ["id", "effect"]),
        ],
        ids=["action", "id", "effect-and-id"],
    )
    @pytest.mark.parametrize("strict", [True, False])
    def test_repeated_read_column_rejected(self, tmp_path, header, row, repeated, strict):
        path = write_lines(tmp_path / "survey.csv", header, row)
        with pytest.raises(CorpusFormatError) as raised:
            import_survey_csv(path, context="kettle", strict=strict)
        assert str(raised.value) == f"{path}: unreadable header row (repeated column(s) {repeated})"

    def test_rfc4180_quoting(self, tmp_path):
        path = write_lines(
            tmp_path / "survey.csv",
            SURVEY_HEADER,
            '"R1","spout, lid and rim","src","spilling of liquid",,,,,,"spout, lid, rim"',
        )
        corpus = import_survey_csv(path, context="kettle")
        assert corpus.problems[0].label == "spout, lid and rim"
        assert corpus.problems[0].constructs[ConstructLevel.PARTS] == "spout, lid, rim"


EMPTY_ACTION = "constructs[action]: the Action construct is mandatory and must be non-empty"


class TestOneRuleSet:
    """Lenient load and survey import skip records by one rule set, worded as
    ``validate`` and strict load word it."""

    @pytest.mark.parametrize("source", ["jsonl", "survey"])
    def test_an_invalid_record_still_holds_its_id(self, tmp_path, source):
        if source == "jsonl":
            path = write_lines(
                tmp_path / "current.jsonl",
                record("A", "current", constructs={"action": " "}),
                record("A", "current"),
                record("B", "current"),
            )
            where, read = "line", lambda: load_corpus(path, Provenance.CURRENT, strict=False)
        else:
            path = write_lines(
                tmp_path / "survey.csv", SURVEY_HEADER, "A,l,s, ,,,,,,", "A,l,s,spill,,,,,,", "B,l,s,spill,,,,,,"
            )
            where, read = "row", lambda: import_survey_csv(path, context="kettle", strict=False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            corpus = read()
        assert [str(w.message) for w in caught] == [
            f"{path}: {where} 1: {EMPTY_ACTION} (skipped)",
            f"{path}: {where} 2: id: duplicate id 'A' (first on {where} 1) (skipped)",
        ]
        assert [p.id for p in corpus.problems] == ["B"]

    def test_lenient_load_warns_once_per_broken_rule(self, tmp_path):
        path = write_lines(tmp_path / "past.jsonl", record("A"), record("A", "current"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            corpus = load_corpus(path, Provenance.PAST, strict=False)
        assert [str(w.message) for w in caught] == [
            f"{path}: line 2: provenance: 'current' does not match the corpus role 'past' (skipped)",
            f"{path}: line 2: id: duplicate id 'A' (first on line 1) (skipped)",
        ]
        assert [p.id for p in corpus.problems] == ["A"]
        with pytest.raises(CorpusFormatError) as raised:
            load_corpus(path, Provenance.PAST)
        assert str(raised.value) == f"{path}: line 2: provenance: 'current' does not match the corpus role 'past'"
