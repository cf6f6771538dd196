"""Pair records as ranking builds them, against the scalar reference and
``assess_pair``, and the read-only level maps the records hold their scores in.

Ranking builds each record from level-aligned tuples and averages inline; the
public scalar functions (``construct_novelty``, ``aggregate_novelty``,
``classify_novelty``) and ``assess_pair`` must agree with it bit for bit.
``classify_novelty`` compares a score with two floats; it must give the band
of the score's two-decimal half-up rounding, taken in Decimal.
"""

import copy
import math
import pickle
import random
from collections.abc import Mapping
from dataclasses import FrozenInstanceError, fields, replace
from decimal import ROUND_HALF_UP, Decimal

import pytest

from sapphire_novelty import (
    ConstructLevel,
    LexicalBackend,
    NoveltyBand,
    PairAssessment,
    ProblemCorpus,
    ProblemSapphire,
    Provenance,
    aggregate_novelty,
    assess_pair,
    classify_novelty,
    construct_novelty,
    construct_text,
    rank_current_problems,
)
from sapphire_novelty.data import load_case_study

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

LEVELS = list(ConstructLevel)
ACTION = ConstructLevel.ACTION
EFFECT = ConstructLevel.EFFECT
NON_ACTION = LEVELS[1:]
ACTIONS = ["boil water", "heat water", "spill liquid", "clean base"]
WORDS = ["heat", "lid", "spout", "steam", "water", "coil", "base"]
# Phrases that repeat and overlap, so similarities take many values; a blank
# phrase counts as an absent level.
phrases = st.one_of(st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join), st.just("  "))


@st.composite
def corpora(draw, role, prefix):
    """1 to 4 problems, each carrying a random subset of the non-Action levels."""
    problems = []
    for index in range(draw(st.integers(1, 4))):
        constructs = {ACTION: draw(st.sampled_from(ACTIONS))}
        for level in draw(st.sets(st.sampled_from(NON_ACTION))):
            constructs[level] = draw(phrases)
        problems.append(ProblemSapphire(f"{prefix}{index}", "", role, constructs=constructs))
    return ProblemCorpus(role.value, role, tuple(problems))


def _bits(scores):
    return [(level, value.hex()) for level, value in scores.items()]


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(
    past=corpora(Provenance.PAST, "P"),
    current=corpora(Provenance.CURRENT, "C"),
    threshold=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
)
def test_ranked_records_match_the_scalar_reference_and_assess_pair(past, current, threshold):
    backend = LexicalBackend()
    report = rank_current_problems(past, current, backend, threshold)
    records = {(a.past_id, a.current_id): a for entry in report.entries for a in entry.assessments}
    for reference in past.problems:
        for problem in current.problems:
            single = assess_pair(reference, problem, backend, threshold)
            record = records.pop((reference.id, problem.id), None)
            assert record == single
            if record is None:
                continue
            assert _bits(record.construct_similarity) == _bits(single.construct_similarity)
            assert _bits(record.construct_novelty) == _bits(single.construct_novelty)
            shared = tuple(
                level
                for level in NON_ACTION
                if construct_text(reference, level) and construct_text(problem, level)
            )
            assert record.included_levels == shared
            assert list(record.construct_similarity) == [ACTION, *shared] == list(record.construct_novelty)
            for level, similarity in record.construct_similarity.items():
                assert record.construct_novelty[level].hex() == construct_novelty(similarity).hex()
            if shared:
                reference_average = aggregate_novelty(dict(record.construct_novelty), shared)
                assert record.average_novelty.hex() == reference_average.hex()
                assert record.band is classify_novelty(reference_average)
                assert not record.no_comparable_constructs
            else:
                assert (record.average_novelty, record.band) == (None, None)
                assert record.no_comparable_constructs
    assert not records  # every record ranking built is a pair assess_pair gates in


@st.composite
def level_maps(draw):
    """A level -> score map over a random subset of levels, in random insertion order."""
    levels = draw(st.lists(st.sampled_from(LEVELS), unique=True))
    return {level: draw(st.floats(0.0, 1.0)) for level in levels}


def _record(similarity, novelty):
    return PairAssessment("P", "C", similarity, novelty, (), None, None, True)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(similarity=level_maps(), novelty=level_maps())
def test_record_maps_are_canonical_read_only_mappings(similarity, novelty):
    record = _record(similarity, novelty)
    for given, held in ((similarity, record.construct_similarity), (novelty, record.construct_novelty)):
        assert isinstance(held, Mapping)
        assert held == given and given == held
        assert list(held) == list(held.keys()) == [level for level in LEVELS if level in given]
        assert list(held.values()) == [given[level] for level in held]
        assert list(held.items()) == [(level, given[level]) for level in held]
        assert len(held) == len(given)
        for level in LEVELS:
            assert (level in held) is (level in given)
            assert held.get(level) is given.get(level)
            assert held.get(level, "absent") is given.get(level, "absent")
            if level in given:
                assert held[level] is given[level]
            else:
                with pytest.raises(KeyError):
                    held[level]
        with pytest.raises(TypeError):
            held[ACTION] = 0.5
        with pytest.raises(TypeError):
            del held[ACTION]
    assert record == _record(dict(reversed(similarity.items())), dict(reversed(novelty.items())))


def test_record_maps_pass_through_a_copy_of_the_record_uncopied():
    record = _record({ACTION: 0.9, ConstructLevel.PARTS: 0.3}, {ConstructLevel.PARTS: 0.7, ACTION: 0.1})
    copy = replace(record, past_id="Q")
    assert copy.construct_similarity is record.construct_similarity
    assert copy.construct_novelty is record.construct_novelty
    with pytest.raises(FrozenInstanceError):
        record.construct_novelty = {}


# Every input keyed by levels goes through one rule; each of these builds one
# with the key "parts" in place of the level.
NOT_A_LEVEL = {
    "similarity map": lambda: _record({ACTION: 0.9, "parts": 0.3}, {}),
    "novelty map": lambda: _record({}, {"parts": 0.7, ACTION: 0.1}),
    "problem constructs": lambda: ProblemSapphire(
        "P", "", Provenance.PAST, constructs={ACTION: "spill", "parts": "lid"}
    ),
    "averaged levels": lambda: aggregate_novelty({"parts": 0.2, EFFECT: 0.8}, ["parts", EFFECT]),
}


@pytest.mark.parametrize("build", NOT_A_LEVEL.values(), ids=NOT_A_LEVEL)
def test_level_keyed_inputs_reject_keys_that_are_not_levels(build):
    with pytest.raises(ValueError, match=r"^keys must be construct levels: \['parts'\]$"):
        build()


def test_a_record_is_the_same_built_positionally_by_keyword_or_with_the_default_flag():
    similarity = {ConstructLevel.PARTS: 0.3, ACTION: 0.9}
    novelty = {ACTION: 0.1, ConstructLevel.PARTS: 0.7}
    values = ("P", "C", similarity, novelty, (ConstructLevel.PARTS,), 0.7, NoveltyBand.HIGH, False)
    positional = PairAssessment(*values)
    keyword = PairAssessment(**dict(zip((f.name for f in fields(PairAssessment)), values)))
    default = PairAssessment(*values[:-1])
    assert positional == keyword == default
    assert default.no_comparable_constructs is False
    for record in (positional, keyword, default):
        assert type(record.construct_novelty).__name__ == "_LevelMap"


def _dense_corpora(seed=7, size=12):
    """Corpora like the dense benchmark's: one shared Action, and level texts
    drawn from a few overlapping phrases, each level present or not."""
    rng = random.Random(seed)
    phrases = ["heat water", "water steam", "lid", "spout steam", "coil heat", "base"]
    corpora = []
    for role, prefix in ((Provenance.PAST, "p"), (Provenance.CURRENT, "c")):
        problems = []
        for index in range(size):
            constructs = {ACTION: "boil water"}
            for level in NON_ACTION:
                if rng.random() < 0.6:
                    constructs[level] = rng.choice(phrases)
            problems.append(ProblemSapphire(f"{prefix}{index}", "", role, constructs=constructs))
        corpora.append(ProblemCorpus(role.value, role, tuple(problems)))
    return corpora


def _ranked_records(source):
    if source == "case-study":
        past, current, backend = load_case_study()
    else:
        (past, current), backend = _dense_corpora(), LexicalBackend()
    report = rank_current_problems(past, current, backend)
    return [a for entry in report.entries for a in entry.assessments]


@pytest.mark.parametrize("source", ["case-study", "dense"])
def test_ranked_records_equal_the_records_the_public_constructor_builds(source):
    records = _ranked_records(source)
    assert records
    for record in records:
        rebuilt = PairAssessment(**{f.name: getattr(record, f.name) for f in fields(record)})
        assert type(record) is PairAssessment
        assert rebuilt == record
        for f in fields(record):
            assert getattr(rebuilt, f.name) is getattr(record, f.name)


def test_a_record_has_slots_and_no_dict():
    record = _ranked_records("case-study")[0]
    assert not hasattr(record, "__dict__")
    with pytest.raises(FrozenInstanceError):
        record.band = None
    assert replace(record, past_id="Q").past_id == "Q"
    assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))


def test_the_public_constructor_keeps_its_checks():
    with pytest.raises(ValueError, match="Action level cannot be part of the average"):
        PairAssessment("P", "C", {ACTION: 0.9}, {ACTION: 0.1}, (ACTION,), 0.1, None)
    record = _record({ConstructLevel.PARTS: 0.3, ACTION: 0.9}, {ACTION: 0.1})
    assert type(record.construct_similarity).__name__ == "_LevelMap"
    assert record.construct_similarity.levels == (ACTION, ConstructLevel.PARTS)


def _decimal_band(score):
    """The band of the score's two-decimal half-up rounding of its shortest
    ``repr``, as a Decimal: Low below 0.3, Medium below 0.7, else High."""
    rounded = Decimal(repr(score)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)
    if rounded < Decimal("0.3"):
        return NoveltyBand.LOW
    if rounded < Decimal("0.7"):
        return NoveltyBand.MEDIUM
    return NoveltyBand.HIGH


def _neighbours(value, steps=3):
    """``value`` and the ``steps`` floats on each side of it."""
    below, above = [value], [value]
    for _ in range(steps):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[::-1] + above[1:]


# The floats around the two band edges of the score, and around the two
# edges of its display rounding; every score with three decimals.
EDGE_SCORES = [score for edge in (0.295, 0.695, 0.3, 0.7) for score in _neighbours(edge)]
scores = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from(EDGE_SCORES),
    st.integers(0, 1000).map(lambda thousandths: thousandths / 1000),
)


@hypothesis.settings(max_examples=1000, deadline=None)
@hypothesis.given(score=scores)
def test_classify_novelty_equals_the_decimal_band(score):
    assert classify_novelty(score) is _decimal_band(score)


def test_classify_novelty_at_the_band_edges():
    for score in EDGE_SCORES:
        assert classify_novelty(score) is _decimal_band(score)
    assert classify_novelty(math.nextafter(0.295, 0.0)) is NoveltyBand.LOW
    assert classify_novelty(0.295) is NoveltyBand.MEDIUM
    assert classify_novelty(math.nextafter(0.695, 0.0)) is NoveltyBand.MEDIUM
    assert classify_novelty(0.695) is NoveltyBand.HIGH


@pytest.mark.parametrize(
    "score", [math.nan, -math.inf, math.inf, math.nextafter(0.0, -1.0), math.nextafter(1.0, 2.0), -0.1, 1.1]
)
def test_classify_novelty_rejects_nan_and_out_of_range_scores(score):
    with pytest.raises(ValueError, match="outside"):
        classify_novelty(score)
