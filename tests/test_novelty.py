import math
import random
import re
import warnings
from decimal import ROUND_DOWN, ROUND_HALF_EVEN, Context, Decimal, Inexact, Rounded, localcontext
from fractions import Fraction
from itertools import product
from unittest import mock

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from sapphire_novelty import (
    ConstructLevel,
    FixtureBackend,
    LexicalBackend,
    NoveltyBand,
    OovWarning,
    OScoreInput,
    PairAssessment,
    ProblemCorpus,
    ProblemSapphire,
    Provenance,
    RemoteBackend,
    SimilarityBackend,
    WordVectorBackend,
    action_match,
    aggregate_novelty,
    assess_pair,
    classify_novelty,
    construct_novelty,
    construct_text,
    make_constructs,
    o_score,
    rank_current_problems,
    render_report,
    round_half_up,
    text_similarity,
)
from sapphire_novelty.data import load_case_study
from sapphire_novelty import novelty
from sapphire_novelty.novelty import round_repr_half_up

from conftest import CASE_STUDY_NOVELTY

NON_ACTION = [level for level in ConstructLevel if level is not ConstructLevel.ACTION]


def problem(problem_id, provenance=Provenance.PAST, **constructs):
    constructs.setdefault("action", "spilling of liquid")
    return ProblemSapphire(
        id=problem_id,
        label=problem_id,
        provenance=provenance,
        constructs=make_constructs(**constructs),
    )


class TestRoundHalfUp:
    @pytest.mark.parametrize(
        ("value", "expected"),
        [
            (0.675, 0.68),
            (0.6225, 0.62),
            (0.705, 0.71),
            (0.7056666666666667, 0.71),
            (0.6981666666666667, 0.70),
            (0.295, 0.30),
            (0.0, 0.0),
            (1.0, 1.0),
            (np.float64(0.675), 0.68),
            (np.float32(0.25), 0.25),
            # The largest magnitude the 28-digit context rounds to 2 places.
            (-9.999999999999999e25, -9.999999999999999e25),
        ],
    )
    def test_two_decimals(self, value, expected):
        assert round_half_up(value, 2) == expected

    def test_three_decimals(self):
        assert round_half_up(0.3145, 3) == 0.315

    @pytest.mark.parametrize(
        ("call", "bad", "message"),
        [
            (round_half_up, True, "value True is not a real number"),
            (round_half_up, "0.675", "value '0.675' is not a real number"),
            (round_half_up, None, "value None is not a real number"),
            # Not finite, or more than the context's 28 digits once rounded.
            (round_half_up, math.nan, "value nan cannot be rounded to 2 decimal places"),
            (round_half_up, math.inf, "value inf cannot be rounded to 2 decimal places"),
            (round_half_up, -math.inf, "value -inf cannot be rounded to 2 decimal places"),
            (round_half_up, 1e26, "value 1e+26 cannot be rounded to 2 decimal places"),
            (lambda v: round_half_up(v, 3), 1e25, "value 1e+25 cannot be rounded to 3 decimal places"),
            (round_repr_half_up, "nan", "value nan cannot be rounded to 2 decimal places"),
            (round_repr_half_up, "-inf", "value -inf cannot be rounded to 2 decimal places"),
        ],
        ids=lambda v: repr(v) if not callable(v) else None,
    )
    def test_a_value_it_cannot_round_rejected(self, call, bad, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(bad)

    def test_monotone(self):
        rng = random.Random(5)
        values = sorted(rng.random() for _ in range(2000))
        rounded = [round_half_up(v, 2) for v in values]
        assert all(a <= b for a, b in zip(rounded, rounded[1:]))

    def test_rounding_a_repr_rounds_its_float(self):
        rng = random.Random(7)
        values = [0.675, 0.0005, 0.0, -0.0, 1.0, 1e-7, *(rng.random() for _ in range(500))]
        for ndigits in (0, 2, 3, 4):
            for value in values:
                expected = round_half_up(value, ndigits)
                rounded = round_repr_half_up(repr(value), ndigits)
                assert rounded.hex() == expected.hex()


class TestConstructNovelty:
    def test_published_similarity_converts_exactly(self):
        assert construct_novelty(0.314) == 0.686

    def test_identity_similarity_is_zero_novelty(self):
        assert construct_novelty(1.0) == 0.0

    def test_zero_similarity_is_full_novelty(self):
        assert construct_novelty(0.0) == 1.0

    @pytest.mark.parametrize("bad", [-0.01, 1.01, 2.0, 10**400])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match="outside"):
            construct_novelty(bad)

    @pytest.mark.parametrize(
        ("similarity", "novelty"),
        [(np.float64(0.5), 0.5), (np.float32(0.25), 0.75), (np.float64(0.314), 0.686), (1, 0.0)],
    )
    def test_real_numbers_are_taken_as_floats(self, similarity, novelty):
        assert construct_novelty(similarity) == novelty

    @pytest.mark.parametrize("bad", [True, False, np.True_, "0.5", None])
    def test_bool_or_non_real_rejected(self, bad):
        with pytest.raises(ValueError, match="is not a real number"):
            construct_novelty(bad)

    def test_complement_is_decimal_faithful(self):
        rng = random.Random(23)
        for _ in range(500):
            similarity = round(rng.random(), 3)
            novelty = construct_novelty(similarity)
            assert 0.0 <= novelty <= 1.0
            assert novelty + similarity == pytest.approx(1.0, abs=1e-15)


def decimal_complement(similarity):
    """1 - similarity as ``float(Decimal(1) - Decimal(repr(similarity)))``, at
    Python's default precision and rounding, whatever the current context."""
    context = Context(prec=28, rounding=ROUND_HALF_EVEN)
    return float(context.subtract(Decimal(1), Decimal(repr(similarity))))


def _neighbours(value, steps=2):
    """``value`` and the ``steps`` floats on each side of it, within [0, 1]."""
    below, above = [value], [value]
    for _ in range(steps):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], 1.0))
    return sorted(set(below + above))


def off_the_float_path(similarity):
    """Whether ``1 - similarity`` is out of the float path's domain: below
    ``2**-36``, at least 0.5, or a tie, exactly halfway between two floats."""
    if not 2.0**-36 <= similarity < 0.5:
        return True
    error = Fraction(1) - Fraction(similarity) - Fraction(1.0 - similarity)
    return abs(error) == Fraction(1, 2**54)


class CountingContext(Context):
    """The package's ``Decimal`` context, counting its subtractions."""

    subtractions = 0

    def __init__(self):
        package = novelty._CONTEXT
        super().__init__(
            prec=package.prec, rounding=package.rounding, Emin=package.Emin, Emax=package.Emax,
            capitals=package.capitals, clamp=package.clamp, flags=[],
            traps=[signal for signal, on in package.traps.items() if on],
        )

    def subtract(self, a, b):
        self.subtractions += 1
        return super().subtract(a, b)


# The edges of the float path, [2**-36, 0.5), and of the range; a tie, where
# the float complement rounds to even (0.75) but the decimal one does not; and
# short decimals, as reports print similarities, with their neighbours.
COMPLEMENT_EDGES = [
    0.0,
    -0.0,
    5e-324,
    2.0**-36,
    math.nextafter(2.0**-36, 0.0),
    0.5,
    math.nextafter(0.5, 0.0),
    1.0,
    0.25 + 2.0**-54,
    *(v for short in (0.1, 0.2, 0.3, 0.314, 0.001, 1e-5, 0.45, 0.7, 0.999) for v in _neighbours(short)),
]


class TestFloatComplement:
    """``construct_novelty`` is the decimal complement bit for bit, on its
    float path as on its ``Decimal`` one."""

    @pytest.mark.parametrize("similarity", COMPLEMENT_EDGES, ids=lambda s: s.hex())
    def test_edges_equal_the_decimal_complement(self, similarity):
        assert construct_novelty(similarity).hex() == decimal_complement(similarity).hex()

    def test_a_tie_takes_the_decimal_complement_not_the_even_float(self):
        # 1 - s lies halfway between 0.7499999999999999 and 0.75; the float
        # subtraction rounds to 0.75, but 1 - 0.25000000000000006 does not.
        assert construct_novelty(0.25 + 2.0**-54) == 0.7499999999999999

    def test_full_mantissas_in_every_binade_equal_the_decimal_complement(self):
        rng = random.Random(30)
        for exponent in range(-1, -41, -1):
            for _ in range(500):
                similarity = math.ldexp(1.0 + rng.getrandbits(52) / 2.0**52, exponent)
                assert construct_novelty(similarity).hex() == decimal_complement(similarity).hex()

    @hypothesis.settings(max_examples=2000, deadline=None)
    @hypothesis.given(similarity=st.floats(0.0, 1.0))
    def test_every_similarity_equals_the_decimal_complement(self, similarity):
        assert construct_novelty(similarity).hex() == decimal_complement(similarity).hex()

    def test_only_similarities_off_the_float_path_pay_a_decimal_subtraction(self):
        rng = random.Random(31)
        similarities = [
            *COMPLEMENT_EDGES,
            *(math.ldexp(1.0 + rng.getrandbits(52) / 2.0**52, rng.randint(-40, -1)) for _ in range(5000)),
            *(round(rng.random(), 3) for _ in range(1000)),
        ]
        context = CountingContext()
        with mock.patch.object(novelty, "_CONTEXT", context):
            for similarity in similarities:
                construct_novelty(similarity)
        off_path = sum(map(off_the_float_path, similarities))
        assert context.subtractions == off_path
        assert 1000 < off_path < 5000  # the sweep reaches both paths


# Contexts a caller may have made current, each changing Decimal arithmetic.
HOSTILE_CONTEXTS = {
    "prec-3": Context(prec=3),
    "round-down": Context(prec=3, rounding=ROUND_DOWN),
    "inexact-trapped": Context(traps=[Inexact, Rounded]),
}


class TestDecimalContext:
    """No ``Decimal`` rule follows the caller's current context."""

    VALUES = [0.31415926, 0.0004, 0.675, 0.6225, 0.295, 1e-12, 0.0, 1.0, 0.7056666666666667]

    @pytest.mark.parametrize("context", HOSTILE_CONTEXTS.values(), ids=HOSTILE_CONTEXTS)
    def test_the_scalars_ignore_the_current_context(self, context):
        calls = [
            *((construct_novelty, value) for value in self.VALUES),
            *((lambda v, n=n: round_half_up(v, n), value) for value in self.VALUES for n in (2, 3, 4)),
            *((lambda v, n=n: round_repr_half_up(repr(v), n), value) for value in self.VALUES for n in (2, 3)),
        ]
        expected = [function(value).hex() for function, value in calls]
        with localcontext(context):
            assert [function(value).hex() for function, value in calls] == expected

    @pytest.mark.parametrize("context", HOSTILE_CONTEXTS.values(), ids=HOSTILE_CONTEXTS)
    def test_the_case_study_reports_ignore_the_current_context(self, context):
        # The pinned table's three-decimal similarities, and the lexical
        # backend's full-precision ones.
        def reports():
            past, current, fixture = load_case_study()
            return [
                render_report(rank_current_problems(past, current, backend), fmt, summary)
                for backend in (fixture, LexicalBackend())
                for fmt in ("table", "csv", "json")
                for summary in (False, True)
            ]

        expected = reports()
        with localcontext(context):
            assert reports() == expected


class TestClassifyNovelty:
    @pytest.mark.parametrize(
        ("score", "band"),
        [
            (0.0, NoveltyBand.LOW),
            (0.29, NoveltyBand.LOW),
            (0.3, NoveltyBand.MEDIUM),
            (0.55, NoveltyBand.MEDIUM),
            (0.69, NoveltyBand.MEDIUM),
            (0.7, NoveltyBand.HIGH),
            (1.0, NoveltyBand.HIGH),
            (np.float64(0.7), NoveltyBand.HIGH),
            (np.float32(0.25), NoveltyBand.LOW),
        ],
    )
    def test_band_boundaries(self, score, band):
        assert classify_novelty(score) is band

    def test_banding_uses_display_rounding(self):
        # 0.6982 prints as 0.70, so its label must be High to agree with the print.
        assert classify_novelty(0.6981666666666667) is NoveltyBand.HIGH
        assert classify_novelty(0.2949) is NoveltyBand.LOW
        assert classify_novelty(0.295) is NoveltyBand.MEDIUM

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 10**400, True, False, "0.5"])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            classify_novelty(bad)

    def test_band_order_total(self):
        assert NoveltyBand.LOW < NoveltyBand.MEDIUM < NoveltyBand.HIGH
        # Strict: no band is below itself or below a lower band.
        assert not NoveltyBand.LOW < NoveltyBand.LOW
        assert not NoveltyBand.MEDIUM < NoveltyBand.MEDIUM
        assert not NoveltyBand.HIGH < NoveltyBand.MEDIUM
        with pytest.raises(TypeError):
            NoveltyBand.LOW < 1

    def test_monotone_in_score(self):
        scores = [i / 1000 for i in range(1001)]
        bands = [classify_novelty(s) for s in scores]
        assert all(a <= b for a, b in zip(bands, bands[1:]))


class TestAggregateNovelty:
    def _scores(self, values):
        return dict(zip(NON_ACTION, values))

    def test_case_study_column_ps1_ps3(self):
        scores = self._scores(CASE_STUDY_NOVELTY[("PS1", "PS3")])
        average = aggregate_novelty(scores, NON_ACTION)
        assert average == pytest.approx(3.313 / 6, abs=1e-12)
        assert round_half_up(average, 2) == 0.55

    def test_case_study_column_ps2_ps5(self):
        scores = self._scores(CASE_STUDY_NOVELTY[("PS2", "PS5")])
        average = aggregate_novelty(scores, NON_ACTION)
        assert average == pytest.approx(4.189 / 6, abs=1e-12)
        assert round_half_up(average, 2) == 0.70

    def test_all_zero_levels(self):
        assert aggregate_novelty(self._scores([0.0] * 6), NON_ACTION) == 0.0

    def test_subset_of_levels(self):
        scores = {ConstructLevel.STATE_CHANGE: 0.4, ConstructLevel.PARTS: 0.8}
        assert aggregate_novelty(scores, scores.keys()) == pytest.approx(0.6)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            aggregate_novelty({}, [])

    def test_action_rejected(self):
        scores = {ConstructLevel.ACTION: 0.0, ConstructLevel.PARTS: 0.5}
        with pytest.raises(ValueError, match="[Aa]ction"):
            aggregate_novelty(scores, [ConstructLevel.ACTION, ConstructLevel.PARTS])

    def test_missing_score_rejected(self):
        with pytest.raises(ValueError, match="no score"):
            aggregate_novelty({ConstructLevel.PARTS: 0.5}, [ConstructLevel.PARTS, ConstructLevel.ORGAN])

    def test_result_independent_of_map_insertion_order(self):
        rng = random.Random(31)
        values = [rng.random() for _ in NON_ACTION]
        forward = dict(zip(NON_ACTION, values))
        backward = dict(zip(reversed(NON_ACTION), reversed(values)))
        assert aggregate_novelty(forward, NON_ACTION) == aggregate_novelty(backward, NON_ACTION)

    @pytest.mark.parametrize(
        ("score", "average"),
        [(np.float64(0.375), 0.5625), (np.float32(0.25), 0.5), (1, 0.875), (0, 0.375)],
        ids=["float64", "float32", "int-1", "int-0"],
    )
    def test_real_numbers_are_averaged_as_floats(self, score, average):
        scores = {ConstructLevel.PARTS: 0.75, ConstructLevel.EFFECT: score}
        result = aggregate_novelty(scores, scores)
        assert type(result) is float
        assert result == average

    @pytest.mark.parametrize("bad", [True, False, np.True_, "0.5", None], ids=repr)
    def test_bool_or_non_real_rejected(self, bad):
        scores = {ConstructLevel.PARTS: 0.75, ConstructLevel.EFFECT: bad}
        with pytest.raises(ValueError, match=r"^effect novelty .+ is not a real number$"):
            aggregate_novelty(scores, scores)

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, 5.0, -1.0, math.nextafter(1.0, 2.0), -5e-324, np.float64(1.5), 2]
    )
    def test_score_outside_the_unit_interval_rejected(self, bad):
        scores = {ConstructLevel.PARTS: 0.75, ConstructLevel.EFFECT: bad}
        with pytest.raises(ValueError, match=r"^effect novelty \S+ outside \[0, 1\]$"):
            aggregate_novelty(scores, scores)


class TestActionMatch:
    def test_identical_actions_match_exactly(self):
        past = problem("A")
        current = problem("B", Provenance.CURRENT)
        matched, similarity = action_match(past, current, LexicalBackend())
        assert matched and similarity == 1.0

    def test_disjoint_actions_fail_gate(self):
        past = problem("A", action="alpha beta")
        current = problem("B", Provenance.CURRENT, action="gamma delta")
        matched, similarity = action_match(past, current, LexicalBackend(), threshold=0.7)
        assert (matched, similarity) == (False, 0.0)

    def test_threshold_is_inclusive(self):
        past = problem("A", action="boil water fast")
        current = problem("B", Provenance.CURRENT, action="boil water fast")
        matched, _ = action_match(past, current, LexicalBackend(), threshold=1.0)
        assert matched

    def test_threshold_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            action_match(problem("A"), problem("B"), LexicalBackend(), threshold=1.5)

    def test_missing_action_rejected(self):
        headless = ProblemSapphire(id="X", label="x", provenance=Provenance.PAST)
        with pytest.raises(ValueError, match="Action"):
            action_match(headless, problem("B"), LexicalBackend())

    def test_case_study_actions_gate_in(self):
        past, current, backend = load_case_study()
        matched, similarity = action_match(past.problems[0], current.problems[0], backend)
        assert matched and similarity == 1.0


# Each entry point that takes an Action threshold, called with one; each gates
# the case study's first past and current problems, whose Actions score 1.0.
THRESHOLD_ENTRY_POINTS = {
    "action_match": lambda past, current, backend, threshold: action_match(
        past.problems[0], current.problems[0], backend, threshold
    ),
    "assess_pair": lambda past, current, backend, threshold: assess_pair(
        past.problems[0], current.problems[0], backend, threshold
    ),
    "rank_current_problems": rank_current_problems,
}


class TestThresholdType:
    """The threshold takes the number-type rule of the scores: a real number
    that is not a ``bool`` is taken as its ``float``; anything else raises."""

    @pytest.mark.parametrize("entry", THRESHOLD_ENTRY_POINTS.values(), ids=THRESHOLD_ENTRY_POINTS)
    @pytest.mark.parametrize("bad", [True, False, np.True_, "0.7", None], ids=repr)
    def test_a_threshold_that_is_not_a_real_number_is_rejected(self, entry, bad):
        past, current, backend = load_case_study()
        with pytest.raises(ValueError, match=r"^threshold .+ is not a real number$"):
            entry(past, current, backend, bad)

    @pytest.mark.parametrize("entry", THRESHOLD_ENTRY_POINTS.values(), ids=THRESHOLD_ENTRY_POINTS)
    @pytest.mark.parametrize("bad", [2, -1, np.float64(1.5)], ids=repr)
    def test_a_real_threshold_out_of_range_is_named_as_given(self, entry, bad):
        past, current, backend = load_case_study()
        with pytest.raises(ValueError, match=rf"^threshold {bad} outside \[0, 1\]$"):
            entry(past, current, backend, bad)

    @pytest.mark.parametrize(
        "threshold", [np.float64(0.7), np.float32(0.5), 1, Fraction(7, 10)], ids=repr
    )
    def test_one_pair_gates_at_the_thresholds_float(self, threshold):
        past, current, backend = load_case_study()
        pair = (past.problems[0], current.problems[0])
        matched, similarity = action_match(*pair, backend, threshold)
        assert type(matched) is bool
        assert (matched, similarity) == (True, 1.0)
        assert assess_pair(*pair, backend, threshold) == assess_pair(*pair, backend, float(threshold))

    @pytest.mark.parametrize(
        ("threshold", "expected"),
        [(np.float64(0.7), 0.7), (np.float32(0.5), 0.5), (1, 1.0), (0, 0.0), (Fraction(7, 10), 0.7)],
        ids=["float64", "float32", "int-1", "int-0", "fraction"],
    )
    def test_the_report_holds_and_renders_the_threshold_as_a_float(self, threshold, expected):
        past, current, backend = load_case_study()
        report = rank_current_problems(past, current, backend, threshold)
        assert type(report.threshold) is float
        assert report.threshold == expected
        reference = rank_current_problems(past, current, backend, expected)
        assert report == reference
        for fmt in ("table", "csv", "json"):
            assert render_report(report, fmt) == render_report(reference, fmt)


class TestAssessPair:
    def test_case_study_pair_ps1_ps3(self):
        past, current, backend = load_case_study()
        assessment = assess_pair(past.problems[0], current.problems[0], backend)
        assert assessment is not None
        assert assessment.average_novelty == pytest.approx(0.5521666666, abs=1e-9)
        assert assessment.band is NoveltyBand.MEDIUM
        assert assessment.included_levels == tuple(NON_ACTION)
        assert ConstructLevel.ACTION not in assessment.included_levels
        assert assessment.construct_similarity[ConstructLevel.ACTION] == 1.0

    def test_action_cannot_be_an_included_level(self):
        with pytest.raises(ValueError, match="Action level cannot be part of the average"):
            PairAssessment(
                past_id="P",
                current_id="C",
                construct_similarity={ConstructLevel.ACTION: 1.0},
                construct_novelty={ConstructLevel.ACTION: 0.0},
                included_levels=(ConstructLevel.ACTION,),
                average_novelty=0.0,
                band=NoveltyBand.LOW,
            )

    def test_novelty_is_complement_of_similarity_for_every_level(self):
        past, current, backend = load_case_study()
        assessment = assess_pair(past.problems[0], current.problems[1], backend)
        for level, similarity in assessment.construct_similarity.items():
            assert assessment.construct_novelty[level] == construct_novelty(similarity)

    def test_identical_problem_scores_zero_novelty(self):
        record = problem(
            "A",
            state_change="x to y",
            phenomena="p q",
            effect="e f",
            input="i",
            organ="o",
            parts="r",
        )
        duplicate = problem(
            "B",
            Provenance.CURRENT,
            state_change="x to y",
            phenomena="p q",
            effect="e f",
            input="i",
            organ="o",
            parts="r",
        )
        assessment = assess_pair(record, duplicate, LexicalBackend())
        assert assessment.average_novelty == 0.0
        assert assessment.band is NoveltyBand.LOW
        assert all(value == 0.0 for value in assessment.construct_novelty.values())

    def test_gate_failure_returns_none(self):
        past = problem("A", action="alpha beta")
        current = problem("B", Provenance.CURRENT, action="gamma delta")
        assert assess_pair(past, current, LexicalBackend()) is None

    def test_average_runs_over_shared_levels_only(self):
        past = problem("A", state_change="x to y", organ="o p")
        current = problem("B", Provenance.CURRENT, state_change="x to z", parts="q r")
        assessment = assess_pair(past, current, LexicalBackend())
        assert assessment.included_levels == (ConstructLevel.STATE_CHANGE,)
        assert assessment.average_novelty == pytest.approx(
            construct_novelty(
                2 / 3  # "x to y" vs "x to z": dot 2, norms sqrt(3) -> 2/3
            ),
            abs=1e-12,
        )

    def test_no_shared_levels_is_flagged_not_crashed(self):
        past = problem("A", organ="o p")
        current = problem("B", Provenance.CURRENT, parts="q r")
        assessment = assess_pair(past, current, LexicalBackend())
        assert assessment is not None
        assert assessment.no_comparable_constructs
        assert assessment.average_novelty is None
        assert assessment.band is None
        assert assessment.included_levels == ()

    def test_gate_consistency_over_random_problems(self):
        rng = random.Random(41)
        actions = ["boil water", "spill liquid", "clean base", "heat fails"]
        backend = LexicalBackend()
        for _ in range(200):
            past = problem("A", action=rng.choice(actions), parts="p q")
            current = problem("B", Provenance.CURRENT, action=rng.choice(actions), parts="p r")
            matched, _ = action_match(past, current, backend)
            assessment = assess_pair(past, current, backend)
            assert (assessment is None) == (not matched)


class TestRankCurrentProblems:
    def test_case_study_ranking(self):
        past, current, backend = load_case_study()
        report = rank_current_problems(past, current, backend)
        assert [entry.current_id for entry in report.ranked] == ["PS5", "PS4", "PS3"]
        assert [entry.rank for entry in report.ranked] == [1, 2, 3]
        minima = {entry.current_id: entry.min_novelty for entry in report.ranked}
        assert minima["PS3"] == pytest.approx(0.5521666666, abs=1e-9)
        assert minima["PS4"] == pytest.approx(0.6526666666, abs=1e-9)
        assert minima["PS5"] == pytest.approx(0.6981666666, abs=1e-9)
        assert report.unmatched == ()
        assert report.backend_kind == "fixture"
        assert report.threshold == 0.7

    def test_minimum_is_taken_over_all_gated_pairs(self):
        past, current, backend = load_case_study()
        report = rank_current_problems(past, current, backend)
        for entry in report.ranked:
            averages = [a.average_novelty for a in entry.assessments]
            assert len(averages) == len(past.problems)
            assert entry.min_novelty == min(averages)

    def test_identical_current_and_past_problem(self):
        record = problem("SAME", state_change="x to y")
        past = ProblemCorpus("past", Provenance.PAST, (record,))
        twin = problem("SAME", Provenance.CURRENT, state_change="x to y")
        current = ProblemCorpus("current", Provenance.CURRENT, (twin,))
        report = rank_current_problems(past, current, LexicalBackend())
        entry = report.ranked[0]
        assert entry.min_novelty == 0.0
        assert entry.band is NoveltyBand.LOW
        assert entry.rank == 1

    def test_unmatched_problems_listed_separately(self):
        past = ProblemCorpus("past", Provenance.PAST, (problem("A", action="alpha beta"),))
        current = ProblemCorpus(
            "current",
            Provenance.CURRENT,
            (problem("B", Provenance.CURRENT, action="gamma delta"),),
        )
        report = rank_current_problems(past, current, LexicalBackend())
        assert report.ranked == ()
        assert [entry.current_id for entry in report.unmatched] == ["B"]
        assert report.unmatched[0].min_novelty is None

    def test_gated_pair_without_shared_levels_counts_as_unmatched(self):
        past = ProblemCorpus("past", Provenance.PAST, (problem("A", organ="o p"),))
        current = ProblemCorpus(
            "current", Provenance.CURRENT, (problem("B", Provenance.CURRENT, parts="q r"),)
        )
        report = rank_current_problems(past, current, LexicalBackend())
        assert report.ranked == ()
        assert [entry.current_id for entry in report.unmatched] == ["B"]
        assert report.unmatched[0].assessments[0].no_comparable_constructs

    def test_ties_break_by_ascending_id(self):
        past = ProblemCorpus("past", Provenance.PAST, (problem("A", parts="p q"),))
        twins = tuple(
            problem(problem_id, Provenance.CURRENT, parts="x y")
            for problem_id in ("C2", "C1", "C3")
        )
        current = ProblemCorpus("current", Provenance.CURRENT, twins)
        report = rank_current_problems(past, current, LexicalBackend())
        assert [entry.current_id for entry in report.ranked] == ["C1", "C2", "C3"]

    def test_empty_past_corpus_rejected(self):
        past = ProblemCorpus("past", Provenance.PAST, ())
        current = ProblemCorpus(
            "current", Provenance.CURRENT, (problem("B", Provenance.CURRENT),)
        )
        with pytest.raises(ValueError, match="non-empty"):
            rank_current_problems(past, current, LexicalBackend())

    def test_ranking_is_a_permutation_of_the_current_corpus(self):
        past, current, backend = load_case_study()
        report = rank_current_problems(past, current, backend)
        reported = sorted(entry.current_id for entry in report.entries)
        assert reported == sorted(p.id for p in current.problems)


class ScalarOnlyBackend(SimilarityBackend):
    """Defines only ``similarity``, as a custom backend may; records every call."""

    def __init__(self, inner):
        self.kind = inner.kind
        self.inner = inner
        self.calls = []

    def similarity(self, a, b):
        self.calls.append((a, b))
        return self.inner.similarity(a, b)


def repetitive_corpora(seed, size=20):
    """Past and current corpora drawing actions and level texts from small pools."""
    rng = random.Random(seed)
    actions = ["boil water", "spill liquid", "spill hot liquid", "clean base", "heat fails"]
    phrases = ["x to y", "x to z", "p q", "p r", "lid seal", "coil heat", "heat lid seal"]

    def corpus(prefix, role):
        problems = tuple(
            problem(
                f"{prefix}{index}",
                role,
                action=rng.choice(actions),
                **{level.key: rng.choice(phrases) for level in NON_ACTION if rng.random() < 0.7},
            )
            for index in range(size)
        )
        return ProblemCorpus(prefix, role, problems)

    return corpus("P", Provenance.PAST), corpus("C", Provenance.CURRENT)


class TestBulkScoring:
    def _backends(self):
        rng = random.Random(61)
        words = ["boil", "water", "spill", "liquid", "x", "y", "p", "q", "lid", "seal", "heat"]
        table = {word: np.array([rng.uniform(-1, 1) for _ in range(6)]) for word in words}
        return [LexicalBackend(), WordVectorBackend(table=table)]

    @pytest.mark.parametrize("threshold", [0.0, 0.5, 0.7])
    def test_scalar_only_backend_gives_the_same_report_bytes(self, threshold):
        past, current = repetitive_corpora(5)
        kettle_past, kettle_current, fixture = load_case_study()
        runs = [(past, current, backend) for backend in self._backends()]
        runs.append((kettle_past, kettle_current, fixture))
        for past_corpus, current_corpus, backend in runs:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                bare = rank_current_problems(past_corpus, current_corpus, backend, threshold)
                wrapped = rank_current_problems(
                    past_corpus, current_corpus, ScalarOnlyBackend(backend), threshold
                )
            for fmt in ("table", "csv", "json"):
                assert render_report(wrapped, fmt) == render_report(bare, fmt), (backend.kind, fmt)

    def test_one_call_per_unique_gate_pair_and_unique_level_pair(self):
        """Both calls score each unique pair once, in order of first appearance:
        that order is the order of the backend's warnings."""
        past, current = repetitive_corpora(7)
        threshold = 0.5
        backend = ScalarOnlyBackend(LexicalBackend())
        rank_current_problems(past, current, backend, threshold)

        def action(record):
            return construct_text(record, ConstructLevel.ACTION)

        past_actions = dict.fromkeys(map(action, past.problems))
        current_actions = dict.fromkeys(map(action, current.problems))
        gate_pairs = list(product(past_actions, current_actions))
        gated = [
            (p, c)
            for c in current.problems
            for p in past.problems
            if LexicalBackend().similarity(action(p), action(c)) >= threshold
        ]
        assert 0 < len(gated) < len(past.problems) * len(current.problems)
        level_pairs = dict.fromkeys(
            (construct_text(p, level), construct_text(c, level))
            for p, c in gated
            for level in NON_ACTION
            if construct_text(p, level) is not None and construct_text(c, level) is not None
        )
        assert backend.calls[: len(gate_pairs)] == gate_pairs
        assert backend.calls[len(gate_pairs) :] == list(level_pairs)


def with_blank_levels(corpus, rng):
    """``corpus`` with some levels present but blank, which count as absent."""
    problems = []
    for record in corpus.problems:
        constructs = dict(record.constructs)
        for level in NON_ACTION:
            if rng.random() < 0.1:
                constructs[level] = "   "
        problems.append(
            ProblemSapphire(record.id, record.label, record.provenance, constructs=constructs)
        )
    return ProblemCorpus(corpus.name, corpus.role, tuple(problems))


def fixture_backend(past, current, rng, path):
    """A fixture pinning every (past text, current text) pair to one of a few values."""
    values = ["0.0", "0.25", "0.314", "0.5", "0.7", "0.75", "1.0"]

    def texts(corpus):
        return {text for record in corpus.problems for text in record.constructs.values() if text.strip()}

    pairs = {tuple(sorted((a, b))) for a in texts(past) for b in texts(current)}
    path.write_text(
        "".join(f"{a}\t{b}\t{rng.choice(values)}\n" for a, b in sorted(pairs)), encoding="utf-8"
    )
    return FixtureBackend.from_file(path)


class TestRankMatchesAssessPair:
    """The ranking's shared per-problem level texts and per-call novelty memo change no
    assessment: each gated pair's equals what ``assess_pair`` builds on its own."""

    @pytest.mark.parametrize("seed", [3, 11, 29])
    @pytest.mark.parametrize("threshold", [0.0, 0.5, 0.7])
    @pytest.mark.parametrize("kind", ["lexical", "fixture"])
    def test_every_gated_pair_equals_assess_pair(self, seed, threshold, kind, tmp_path):
        rng = random.Random(seed)
        past, current = (with_blank_levels(corpus, rng) for corpus in repetitive_corpora(seed, 15))
        if kind == "lexical":
            backend = LexicalBackend()
        else:
            backend = fixture_backend(past, current, rng, tmp_path / "pinned.tsv")
        report = rank_current_problems(past, current, backend, threshold)
        ranked = {
            (a.past_id, a.current_id): a for entry in report.entries for a in entry.assessments
        }
        alone = {}
        for p in past.problems:
            for c in current.problems:
                assessment = assess_pair(p, c, backend, threshold)
                if assessment is not None:
                    alone[p.id, c.id] = assessment
        assert alone and ranked == alone
        for a in ranked.values():
            for level, similarity in a.construct_similarity.items():
                assert a.construct_novelty[level] == construct_novelty(similarity)
            if a.average_novelty is not None:
                assert a.band is classify_novelty(a.average_novelty)
        values = [v for a in alone.values() for v in a.construct_similarity.values()]
        assert len(set(values)) < len(values), "similarity values must repeat"
        assert any(len(a.included_levels) < len(NON_ACTION) for a in alone.values())


class TestOneScoringPath:
    """The package reaches a bulk backend only through ``similarities``: one
    pair is scored as the one-pair case of a bulk call."""

    @pytest.mark.parametrize("kind", ["lexical", "wordvec", "remote"])
    def test_scalar_similarity_is_never_called(self, kind, embed_stub):
        if kind == "lexical":
            backend = LexicalBackend()
        elif kind == "wordvec":
            table = {"spilling": [1.0, 0.0], "liquid": [0.5, 1.0], "lid": [0.0, 1.0], "water": [1.0, 1.0]}
            backend = WordVectorBackend(table=table)
        else:
            backend = RemoteBackend(endpoint=embed_stub.url)
        past, current, _ = load_case_study()
        scalar = mock.patch.object(type(backend), "similarity", side_effect=AssertionError("scalar path"))
        with scalar, warnings.catch_warnings():
            warnings.simplefilter("ignore", OovWarning)
            text_similarity("spilling of liquid", "kettle lid", backend)
            action_match(past.problems[0], current.problems[0], backend)
            assert assess_pair(past.problems[0], current.problems[0], backend, threshold=0.0)
            assert rank_current_problems(past, current, backend, threshold=0.0).ranked


class TestOScore:
    def test_all_ideas_similar(self):
        assert o_score(OScoreInput(n=5, m=5)) == 0.0
        assert o_score(OScoreInput(n=1, m=1)) == 0.0

    def test_no_ideas_similar(self):
        assert o_score(OScoreInput(n=0, m=5)) == 1.0
        assert o_score(OScoreInput(n=0, m=1)) == 1.0

    def test_arithmetic(self):
        assert o_score(OScoreInput(n=2, m=8)) == 0.75

    @pytest.mark.parametrize(
        ("n", "m", "message"),
        [
            (1, 0, "m 0 is not an integer of at least 1"),
            (-1, 5, "n -1 is not an integer of at least 0"),
            (6, 5, "n must satisfy 0 <= n <= m, got n=6, m=5"),
            (True, 2, "n True is not an integer of at least 0"),
            (1, True, "m True is not an integer of at least 1"),
            (0.5, 1.5, "m 1.5 is not an integer of at least 1"),
            (0.5, 2, "n 0.5 is not an integer of at least 0"),
            (1, math.inf, "m inf is not an integer of at least 1"),
            ("1", 2, "n '1' is not an integer of at least 0"),
            (None, 2, "n None is not an integer of at least 0"),
            (1, None, "m None is not an integer of at least 1"),
        ],
    )
    def test_invalid_counts_rejected(self, n, m, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            OScoreInput(n=n, m=m)

    def test_numpy_counts_are_held_as_ints_and_give_a_float(self):
        counts = OScoreInput(n=np.int64(2), m=np.int64(8))
        assert (type(counts.n), type(counts.m)) == (int, int)
        score = o_score(counts)
        assert type(score) is float and score == 0.75


class TestMonotonicity:
    def test_raising_one_similarity_never_raises_average_novelty(self):
        rng = random.Random(53)
        for _ in range(500):
            similarities = {level: rng.random() for level in NON_ACTION}
            novelties = {level: construct_novelty(s) for level, s in similarities.items()}
            base = aggregate_novelty(novelties, NON_ACTION)
            bumped_level = rng.choice(NON_ACTION)
            raised = dict(similarities)
            raised[bumped_level] = min(1.0, raised[bumped_level] + rng.uniform(0.0, 0.5))
            raised_novelties = {level: construct_novelty(s) for level, s in raised.items()}
            assert aggregate_novelty(raised_novelties, NON_ACTION) <= base + 1e-15
