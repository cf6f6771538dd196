import re

import pytest

from sapphire_novelty import (
    CANONICAL_LEVEL_KEYS,
    ConstructLevel,
    ProblemCorpus,
    ProblemSapphire,
    Provenance,
    construct_text,
    make_constructs,
    validate_corpus,
    validate_problem,
)


def full_problem(problem_id="PS1", provenance=Provenance.PAST):
    return ProblemSapphire(
        id=problem_id,
        label="spilling",
        provenance=provenance,
        source="patent",
        context="electric kettle",
        constructs=make_constructs(
            action="spilling of liquid",
            state_change="Contained to leak body",
            phenomena="liquid overflow",
            effect="convection",
            input="heat",
            organ="vessel walls",
            parts="body and lid",
        ),
    )


class TestConstructLevel:
    def test_exactly_seven_members_in_canonical_order(self):
        assert [level.key for level in ConstructLevel] == [
            "action", "state_change", "phenomena", "effect", "input", "organ", "parts",
        ]
        assert CANONICAL_LEVEL_KEYS == tuple(level.key for level in ConstructLevel)

    def test_display_labels_match_score_tables(self):
        assert [level.label for level in ConstructLevel] == [
            "Action", "State Change", "Phenomena", "Effect", "Input", "oRgan", "Parts",
        ]

    def test_from_key_roundtrip(self):
        for level in ConstructLevel:
            assert ConstructLevel.from_key(level.key) is level

    def test_from_key_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown construct key"):
            ConstructLevel.from_key("organs")


class TestValidateProblem:
    def test_complete_problem_is_ok(self):
        assert validate_problem(full_problem()) == []

    def test_empty_action_names_action_level(self):
        problem = ProblemSapphire(
            id="P1",
            label="x",
            provenance=Provenance.PAST,
            constructs={ConstructLevel.ACTION: "   "},
        )
        violations = validate_problem(problem)
        assert len(violations) == 1
        assert violations[0].level is ConstructLevel.ACTION

    def test_missing_action_is_a_violation(self):
        problem = ProblemSapphire(id="P1", label="x", provenance=Provenance.PAST)
        assert any(v.level is ConstructLevel.ACTION for v in validate_problem(problem))

    def test_id_with_whitespace_names_id(self):
        problem = ProblemSapphire(
            id="PS 1",
            label="x",
            provenance=Provenance.PAST,
            constructs=make_constructs(action="spilling"),
        )
        violations = validate_problem(problem)
        assert [v.field for v in violations] == ["id"]

    def test_empty_id(self):
        problem = ProblemSapphire(
            id="",
            label="x",
            provenance=Provenance.CURRENT,
            constructs=make_constructs(action="spilling"),
        )
        assert [v.field for v in validate_problem(problem)] == ["id"]

    def test_blank_non_action_construct_names_its_level(self):
        problem = ProblemSapphire(
            id="P1",
            label="x",
            provenance=Provenance.PAST,
            constructs=make_constructs(action="spilling", organ="  "),
        )
        violations = validate_problem(problem)
        assert [v.level for v in violations] == [ConstructLevel.ORGAN]

    @pytest.mark.parametrize("name", ["id", "label", "source", "context", "action", "organ"])
    def test_text_that_cannot_be_written_as_utf8_names_its_field(self, name):
        fields = {"id": "P1", "label": "x", "source": "", "context": ""}
        texts = {"action": "spilling", "organ": "lid"}
        if name in fields:
            fields[name] = "sp\udcffill"
        else:
            texts[name] = "sp\udcffill"
        problem = ProblemSapphire(
            provenance=Provenance.PAST, constructs=make_constructs(**texts), **fields
        )
        [violation] = validate_problem(problem)
        level = None if name in fields else ConstructLevel.from_key(name)
        assert (violation.field, violation.level) == (name if level is None else "constructs", level)
        assert violation.message.endswith("lone surrogate '\\udcff'")

    def test_validation_is_pure(self):
        problem = full_problem()
        assert validate_problem(problem) == validate_problem(problem)


class TestConstructText:
    def test_present_text_returned_verbatim(self):
        problem = full_problem()
        assert construct_text(problem, ConstructLevel.ACTION) == "spilling of liquid"
        assert construct_text(problem, ConstructLevel.STATE_CHANGE) == "Contained to leak body"

    def test_absent_level_is_none_not_error(self):
        problem = ProblemSapphire(
            id="P1",
            label="x",
            provenance=Provenance.PAST,
            constructs=make_constructs(action="spilling"),
        )
        assert construct_text(problem, ConstructLevel.ORGAN) is None

    def test_blank_text_reads_as_absent_never_empty(self):
        problem = ProblemSapphire(
            id="P1",
            label="x",
            provenance=Provenance.PAST,
            constructs=make_constructs(action="spilling", parts="   "),
        )
        assert construct_text(problem, ConstructLevel.PARTS) is None
        for level in ConstructLevel:
            text = construct_text(problem, level)
            assert text is None or text.strip()


class TestImmutability:
    def test_problem_fields_are_frozen(self):
        problem = full_problem()
        with pytest.raises(AttributeError):
            problem.id = "other"

    def test_constructs_mapping_is_read_only(self):
        problem = full_problem()
        with pytest.raises(TypeError):
            problem.constructs[ConstructLevel.ACTION] = "other"

    def test_constructs_iterate_in_canonical_order_regardless_of_insertion(self):
        shuffled = {
            ConstructLevel.PARTS: "p",
            ConstructLevel.ACTION: "a",
            ConstructLevel.INPUT: "i",
        }
        problem = ProblemSapphire(
            id="P1", label="x", provenance=Provenance.PAST, constructs=shuffled
        )
        assert list(problem.constructs) == [
            ConstructLevel.ACTION, ConstructLevel.INPUT, ConstructLevel.PARTS,
        ]

    @pytest.mark.parametrize("key", ["state_change", "action", "Effect", None])
    def test_a_key_that_is_not_a_level_raises_naming_it(self, key):
        constructs = {ConstructLevel.ACTION: "spilling of liquid", key: "leak"}
        with pytest.raises(ValueError, match=rf"^keys must be construct levels: \[{re.escape(repr(key))}\]$"):
            ProblemSapphire(id="P1", label="x", provenance=Provenance.PAST, constructs=constructs)


class TestValidateCorpus:
    def test_valid_corpus(self):
        corpus = ProblemCorpus(
            name="past",
            role=Provenance.PAST,
            problems=(full_problem("A"), full_problem("B")),
        )
        assert validate_corpus(corpus) == []

    def test_duplicate_ids_reported(self):
        corpus = ProblemCorpus(
            name="past",
            role=Provenance.PAST,
            problems=(full_problem("A"), full_problem("A")),
        )
        violations = validate_corpus(corpus)
        assert any("duplicate id" in v.message for v in violations)

    def test_provenance_role_mismatch_reported(self):
        corpus = ProblemCorpus(
            name="past",
            role=Provenance.PAST,
            problems=(full_problem("A", Provenance.CURRENT),),
        )
        violations = validate_corpus(corpus)
        assert any("corpus role" in v.message for v in violations)
