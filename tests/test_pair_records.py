"""Pair records as ranking builds them, against the scalar reference and
``assess_pair``, and the read-only level maps the records hold their scores in.

Ranking builds each record from level-aligned tuples, and the record derives
its average and band from them; the public scalar functions
(``construct_novelty``, ``aggregate_novelty``, ``classify_novelty``) and
``assess_pair`` must agree with it bit for bit.
``classify_novelty`` compares a score with two floats; it must give the band
of the score's two-decimal half-up rounding, taken in Decimal.
"""

import copy
import math
import pickle
import random
import re
from collections.abc import Mapping
from dataclasses import FrozenInstanceError, fields, replace
from decimal import ROUND_HALF_UP, Decimal

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from sapphire_novelty import (
    ConstructLevel,
    LexicalBackend,
    NoveltyBand,
    NoveltyReport,
    PairAssessment,
    ProblemNovelty,
    ProblemCorpus,
    ProblemSapphire,
    Provenance,
    aggregate_novelty,
    assess_pair,
    classify_novelty,
    construct_novelty,
    construct_text,
    rank_current_problems,
    render_report,
)
from sapphire_novelty.data import load_case_study

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
def score_maps(draw):
    """A similarity and a novelty map over one random set of levels that holds
    Action, each in its own random insertion order."""
    levels = [ACTION, *draw(st.lists(st.sampled_from(NON_ACTION), unique=True))]
    return tuple({level: draw(st.floats(0.0, 1.0)) for level in draw(st.permutations(levels))} for _ in range(2))


def _record(similarity, novelty):
    return PairAssessment("P", "C", similarity, novelty)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(maps=score_maps())
def test_record_maps_are_canonical_read_only_mappings(maps):
    similarity, novelty = maps
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


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(maps=score_maps())
def test_a_record_derives_its_included_levels_average_band_and_flag(maps):
    """A record is built from its two score maps alone: its included levels
    are their non-Action levels, its average :func:`aggregate_novelty` over
    them bit for bit, and its band that average's."""
    similarity, novelty = maps
    record = _record(similarity, novelty)
    included = record.included_levels
    assert included == tuple(level for level in NON_ACTION if level in similarity)
    assert record.no_comparable_constructs == (not included)
    if included:
        assert record.average_novelty.hex() == aggregate_novelty(novelty, included).hex()
        assert record.band is classify_novelty(record.average_novelty)
    else:
        assert (record.average_novelty, record.band) == (None, None)
    assert replace(record, past_id="Q").band is record.band


@pytest.mark.parametrize(
    ("similarity", "novelty"),
    [
        ({}, {}),
        ({EFFECT: 0.5}, {EFFECT: 0.5}),
        ({ACTION: 0.5, EFFECT: 0.5}, {ACTION: 0.5}),
        ({ACTION: 0.5}, {ACTION: 0.5, EFFECT: 0.5}),
        ({ACTION: 0.5, EFFECT: 0.5}, {ACTION: 0.5, ConstructLevel.PARTS: 0.5}),
    ],
    ids=["empty", "no-action", "novelty-lacks-a-level", "similarity-lacks-a-level", "other-levels"],
)
def test_a_record_rejects_maps_without_action_or_with_different_levels(similarity, novelty):
    with pytest.raises(ValueError, match=r"^score maps must share their levels, Action among them: "):
        _record(similarity, novelty)


@pytest.mark.parametrize("name", ["included_levels", "average_novelty", "band", "no_comparable_constructs"])
def test_a_record_takes_no_derived_field(name):
    scores = {ACTION: 0.5, EFFECT: 0.5}
    given = {"included_levels": (EFFECT,), "average_novelty": 0.5, "band": NoveltyBand.MEDIUM}
    with pytest.raises(TypeError, match=rf"unexpected keyword argument '{name}'"):
        PairAssessment("p1", "c1", scores, scores, **{name: given.get(name, False)})


def test_a_contradictory_record_cannot_be_built():
    """A record once took its average, band and flag as given, and every
    renderer printed an Effect novelty of 0.500 beside an average of 0.10,
    labelled High."""
    record = _record({ACTION: 0.9, EFFECT: 0.9}, {ACTION: 0.1, EFFECT: 0.5})
    assert (record.included_levels, record.average_novelty) == ((EFFECT,), 0.5)
    assert (record.band, record.no_comparable_constructs) == (NoveltyBand.MEDIUM, False)
    entry = ProblemNovelty("c1", (record,), 0.5, 1)
    table = render_report(NoveltyReport("lexical", 0.7, "past", "current", ranked=(entry,)), "table")
    assert "Avg. Novelty  0.50" in table and "Medium Novelty" in table and "High" not in table


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(minimum=st.floats(0.0, 1.0))
def test_an_entry_derives_its_band_from_its_minimum(minimum):
    entry = ProblemNovelty("c1", (), minimum, 1)
    assert entry.band is classify_novelty(minimum)
    assert replace(entry, min_novelty=0.8).band is NoveltyBand.HIGH
    assert replace(entry, min_novelty=None, rank=None).band is None
    assert ProblemNovelty("c2", ()).band is None
    with pytest.raises(TypeError, match="unexpected keyword argument 'band'"):
        ProblemNovelty("c1", (), minimum, band=NoveltyBand.LOW, rank=1)


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


@pytest.mark.parametrize("field", ["similarity", "novelty"])
@pytest.mark.parametrize("bad", [True, False, np.True_, "0.5", None], ids=repr)
def test_a_record_rejects_a_score_that_is_not_a_real_number(field, bad):
    scores = {ACTION: 0.5, ConstructLevel.PARTS: bad}
    maps = {"similarity": {ACTION: 0.5}, "novelty": {ACTION: 0.5}, field: scores}
    with pytest.raises(ValueError, match=rf"^parts {field} .+ is not a real number$"):
        _record(maps["similarity"], maps["novelty"])


@pytest.mark.parametrize("field", ["similarity", "novelty"])
@pytest.mark.parametrize(
    ("bad", "text"), [(math.nan, "nan"), (-6.0, "-6.0"), (7.0, "7.0")], ids=["nan", "-6.0", "7.0"]
)
def test_a_record_rejects_a_score_outside_the_unit_range(field, bad, text):
    scores = {ACTION: 0.5, EFFECT: bad}
    maps = {"similarity": {ACTION: 0.5}, "novelty": {ACTION: 0.5}, field: scores}
    with pytest.raises(ValueError, match=rf"^effect {field} {text} outside \[0, 1\]$"):
        _record(maps["similarity"], maps["novelty"])


@pytest.mark.parametrize(
    ("bad", "message"),
    [
        (math.nan, r"nan outside \[0, 1\]"),
        ("abc", "'abc' is not a real number"),
        (True, "True is not a real number"),
    ],
    ids=["nan", "abc", "True"],
)
def test_a_report_threshold_obeys_the_action_threshold_rule(bad, message):
    with pytest.raises(ValueError, match=rf"^threshold {message}$"):
        NoveltyReport("lexical", bad, "past", "current")


_LACKS = "lacks a min_novelty or a rank"
_CARRIES = "carries a min_novelty or a rank"


@pytest.mark.parametrize(
    ("ranked", "unmatched", "message"),
    [
        ((ProblemNovelty("c1", ()),), (), f"ranked entry 'c1' {_LACKS}"),
        ((ProblemNovelty("c1", (), None, 1),), (), f"ranked entry 'c1' {_LACKS}"),
        ((ProblemNovelty("c1", (), 0.25),), (), f"ranked entry 'c1' {_LACKS}"),
        ((), (ProblemNovelty("c2", (), 0.25, 1),), f"unmatched entry 'c2' {_CARRIES}"),
        ((), (ProblemNovelty("c2", (), 0.0),), f"unmatched entry 'c2' {_CARRIES}"),
        ((), (ProblemNovelty("c2", (), None, 1),), f"unmatched entry 'c2' {_CARRIES}"),
    ],
    ids=["ranked-none", "ranked-no-minimum", "ranked-no-rank",
         "unmatched-all", "unmatched-minimum", "unmatched-rank"],
)
def test_a_report_entry_carries_the_scores_of_its_list_or_is_rejected(ranked, unmatched, message):
    """A ranked entry without a minimum, a band or a rank would fail in every
    renderer far from its cause; an unmatched one with any would print a score
    for a problem that has none."""
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        NoveltyReport("lexical", 0.7, "past", "current", ranked=ranked, unmatched=unmatched)


def _report_of(score, minimum=0.25):
    """A one-pair report whose record holds ``score`` at every level of both
    maps, and so averages ``score``, and whose entry holds ``minimum``."""
    scores = {ACTION: score, ConstructLevel.PARTS: score}
    record = PairAssessment("p1", "c1", scores, scores)
    entry = ProblemNovelty("c1", (record,), minimum, 1)
    return NoveltyReport("lexical", 0.7, "past", "current", ranked=(entry,))


@pytest.mark.parametrize(
    ("score", "expected"),
    [(np.float64(0.375), 0.375), (np.float32(0.25), 0.25), (1, 1.0), (0, 0.0)],
    ids=["float64", "float32", "int-1", "int-0"],
)
def test_a_record_holds_real_scores_as_floats_and_renders_them_so(score, expected):
    report, reference = _report_of(score), _report_of(expected)
    (record,) = report.ranked[0].assessments
    for held in (record.construct_similarity, record.construct_novelty):
        assert [type(value) for value in held.values()] == [float, float]
        assert list(held.values()) == [expected, expected]
    assert report == reference
    for fmt in ("table", "csv", "json"):
        for summary_only in (False, True):
            assert render_report(report, fmt, summary_only) == render_report(reference, fmt, summary_only)


@pytest.mark.parametrize(
    ("score", "expected"),
    [(np.float64(0.25), 0.25), (np.float32(0.25), 0.25), (1, 1.0), (0, 0.0)],
    ids=["float64", "float32", "int-1", "int-0"],
)
def test_an_average_and_a_minimum_are_held_as_floats_and_render_so(score, expected):
    report, reference = _report_of(score, score), _report_of(expected, expected)
    (entry,) = report.ranked
    (record,) = entry.assessments
    assert type(record.average_novelty) is float and record.average_novelty == expected
    assert type(entry.min_novelty) is float and entry.min_novelty == expected
    assert report == reference
    for fmt in ("table", "csv", "json"):
        for summary_only in (False, True):
            assert render_report(report, fmt, summary_only) == render_report(reference, fmt, summary_only)


@pytest.mark.parametrize("field", ["average_novelty", "min_novelty"])
@pytest.mark.parametrize(
    ("bad", "message"),
    [
        (math.nan, r"nan outside \[0, 1\]"),
        (math.inf, r"inf outside \[0, 1\]"),
        (-0.25, r"-0.25 outside \[0, 1\]"),
        (math.nextafter(1.0, 2.0), r"1.0000000000000002 outside \[0, 1\]"),
        (np.float32(1.5), r"1.5 outside \[0, 1\]"),
        (2, r"2 outside \[0, 1\]"),
        (True, "True is not a real number"),
        (np.True_, r"\S+ is not a real number"),  # np.True_ or True, as numpy writes it
        ("0.5", "'0.5' is not a real number"),
    ],
    ids=repr,
)
def test_an_average_or_a_minimum_outside_the_number_rule_is_rejected(field, bad, message):
    if field == "min_novelty":
        with pytest.raises(ValueError, match=rf"^min_novelty {message}$"):
            _report_of(0.5, bad)
        return
    # An average is the mean of the novelty scores, so only a novelty score
    # outside the rule could put one outside it; the rule names that score.
    scores = {ACTION: 0.5, ConstructLevel.PARTS: 0.5}
    with pytest.raises(ValueError, match=rf"^parts novelty {message}$"):
        PairAssessment("p1", "c1", scores, {**scores, ConstructLevel.PARTS: bad})


@pytest.mark.parametrize(
    "bad", [math.nan, 0, -1, True, np.True_, 2.5, 1.0, "1", np.int64(0)], ids=repr
)
def test_a_rank_that_is_not_an_integer_of_at_least_one_is_rejected(bad):
    with pytest.raises(ValueError, match=r"^rank \S+ is not an integer of at least 1$"):
        ProblemNovelty("c1", (), 0.25, bad)


@pytest.mark.parametrize("rank", [np.int64(3), np.uint8(3)], ids=repr)
def test_an_integral_rank_is_held_as_its_int_and_renders_so(rank):
    entry, reference = (ProblemNovelty("c1", (), 0.25, r) for r in (rank, 3))
    assert type(entry.rank) is int and entry == reference
    report, expected = (NoveltyReport("lexical", 0.7, "p", "c", ranked=(e,)) for e in (entry, reference))
    for fmt in ("table", "csv", "json"):
        assert render_report(report, fmt) == render_report(expected, fmt)


def test_a_record_is_the_same_built_positionally_or_by_keyword():
    similarity = {ConstructLevel.PARTS: 0.3, ACTION: 0.9}
    novelty = {ACTION: 0.1, ConstructLevel.PARTS: 0.7}
    values = ("P", "C", similarity, novelty)
    positional = PairAssessment(*values)
    keyword = PairAssessment(**dict(zip((f.name for f in fields(PairAssessment) if f.init), values)))
    assert positional == keyword
    assert (positional.average_novelty, positional.band) == (0.7, NoveltyBand.HIGH)
    assert positional.no_comparable_constructs is False
    for record in (positional, keyword):
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
        rebuilt = PairAssessment(**{f.name: getattr(record, f.name) for f in fields(record) if f.init})
        assert type(record) is PairAssessment
        assert rebuilt == record
        # The average is derived anew, so it is the same float, not the same object.
        for f in fields(record):
            if f.name != "average_novelty":
                assert getattr(rebuilt, f.name) is getattr(record, f.name)
        average = record.average_novelty
        assert rebuilt.average_novelty is None if average is None else rebuilt.average_novelty.hex() == average.hex()


def test_a_record_has_slots_and_no_dict():
    record = _ranked_records("case-study")[0]
    assert not hasattr(record, "__dict__")
    with pytest.raises(FrozenInstanceError):
        record.band = None
    assert replace(record, past_id="Q").past_id == "Q"
    assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))


def test_the_public_constructor_keeps_its_checks():
    with pytest.raises(ValueError, match="Action among them"):
        _record({ConstructLevel.PARTS: 0.3}, {ConstructLevel.PARTS: 0.7})
    record = _record({ConstructLevel.PARTS: 0.3, ACTION: 0.9}, {ACTION: 0.1, ConstructLevel.PARTS: 0.7})
    assert type(record.construct_similarity).__name__ == "_LevelMap"
    assert record.construct_similarity.levels == (ACTION, ConstructLevel.PARTS)
    assert repr(record.construct_similarity) == (
        "_LevelMap({<ConstructLevel.ACTION: 'action'>: 0.9, <ConstructLevel.PARTS: 'parts'>: 0.3})"
    )


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
