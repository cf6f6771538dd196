"""A whole ranking against a reference written from the paper's definition,
sharing no code with ranking.

For each current problem, a past problem is compared when the similarity of
their Action texts reaches the threshold. Each level both carry (other than
the Action) gets novelty 1 - s, taken in decimal on the similarity's shortest
``repr``, as a report reader subtracts; the pair's average is the mean of
those novelties in canonical level order. The problem's score is the minimum
average over its compared pairs, banded on its two-decimal half-up display
(Low below 0.3, Medium below 0.7, else High), and problems are ranked by
(-minimum, id). A problem with no compared pair that shares a level is
unmatched; those are listed by id. The reference scores each pair with its
own ``backend.similarity`` call, so it does not share ranking's bulk calls,
memo or level keys either.

On the same corpora, two tests count a ranking's work without timing it:
the backend sees two ``similarities`` calls, each over unique pairs, and
each distinct similarity off ``construct_novelty``'s float path pays one
``Decimal`` subtraction.
"""

import warnings
from decimal import ROUND_HALF_UP, Decimal
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
    ProblemCorpus,
    ProblemSapphire,
    Provenance,
    SimilarityBackend,
    WordVectorBackend,
    novelty,
    rank_current_problems,
)
from test_novelty import CountingContext, off_the_float_path

ACTION = ConstructLevel.ACTION
NON_ACTION = [level for level in ConstructLevel if level is not ACTION]
# Few Actions, so many problems share one; "Water boil" tokenizes as "boil water".
ACTIONS = ["boil water", "Water boil", "heat water", "spill liquid"]
# Few phrases, so level texts repeat and averages tie; "xyzzy" has no word vector.
PHRASES = ["heat", "lid", "steam", "hot lid", "lid hot", "steam heat lid", "spout", "xyzzy", "xyzzy lid"]
BLANK = "  "  # a level whose text is blank is absent
WORDS = ["boil", "water", "heat", "spill", "liquid", "hot", "lid", "steam", "spout"]


def _wordvec_backend():
    rng = np.random.default_rng(17)
    return WordVectorBackend(table={word: rng.uniform(-1.0, 1.0, 4) for word in WORDS})


def _fixture_backend():
    """Every pair of the texts above, pinned to the lexical similarity at two
    decimals, so many pairs tie."""
    texts = ACTIONS + PHRASES
    keys = [tuple(sorted((a.casefold(), b.casefold()))) for i, a in enumerate(texts) for b in texts[i:]]
    values = LexicalBackend().similarities(keys)
    return FixtureBackend(table={key: round(value, 2) for key, value in zip(keys, values)})


BACKENDS = {"lexical": LexicalBackend, "wordvec": _wordvec_backend, "fixture": _fixture_backend}


@st.composite
def corpora(draw, role, prefix):
    """1 to 30 problems with shuffled ids, each with a drawn Action and some
    non-Action levels, some of them blank."""
    size = draw(st.integers(1, 30))
    ids = draw(st.permutations(range(size)))
    problems = []
    for index in ids:
        constructs = {ACTION: draw(st.sampled_from(ACTIONS))}
        for level in draw(st.sets(st.sampled_from(NON_ACTION))):
            constructs[level] = draw(st.sampled_from(PHRASES + [BLANK]))
        problems.append(ProblemSapphire(f"{prefix}{index:02d}", "", role, constructs=constructs))
    return ProblemCorpus(role.value, role, tuple(problems))


def _band(score):
    rounded = Decimal(repr(score)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)
    if rounded < Decimal("0.3"):
        return NoveltyBand.LOW
    return NoveltyBand.MEDIUM if rounded < Decimal("0.7") else NoveltyBand.HIGH


def _text(problem, level):
    """The problem's text at ``level``, or None if it is absent or blank."""
    value = problem.constructs.get(level)
    return value if value is not None and value.strip() else None


def _reference(past, current, backend, threshold):
    """(ranked, unmatched) as the definition gives them, in the shape of :func:`_observed`."""
    similarity = {}

    def score(a, b):
        if (a, b) not in similarity:
            similarity[a, b] = backend.similarity(a, b)
        return similarity[a, b]

    ranked, unmatched = [], []
    for problem in current.problems:
        records, averages = [], []
        for reference in past.problems:
            action = score(_text(reference, ACTION), _text(problem, ACTION))
            if not action >= threshold:
                continue
            shared = [level for level in NON_ACTION if _text(reference, level) and _text(problem, level)]
            levels = [ACTION, *shared]
            similarities = [action] + [score(_text(reference, level), _text(problem, level)) for level in shared]
            novelties = [float(Decimal(1) - Decimal(repr(value))) for value in similarities]
            average = sum(novelties[1:]) / len(shared) if shared else None
            if shared:
                averages.append(average)
            records.append(
                (
                    reference.id,
                    [(level, s.hex(), n.hex()) for level, s, n in zip(levels, similarities, novelties)],
                    tuple(shared),
                    None if average is None else average.hex(),
                    None if average is None else _band(average),
                    not shared,
                )
            )
        if averages:
            ranked.append((min(averages), problem.id, records))
        else:
            unmatched.append((problem.id, records))
    ranked.sort(key=lambda entry: (-entry[0], entry[1]))
    return (
        [
            (problem_id, rank, minimum.hex(), _band(minimum), records)
            for rank, (minimum, problem_id, records) in enumerate(ranked, start=1)
        ],
        sorted(unmatched, key=lambda entry: entry[0]),
    )


def _observed(report):
    def records(entry):
        return [
            (
                pair.past_id,
                [
                    (level, pair.construct_similarity[level].hex(), pair.construct_novelty[level].hex())
                    for level in pair.construct_similarity
                ],
                pair.included_levels,
                None if pair.average_novelty is None else pair.average_novelty.hex(),
                pair.band,
                pair.no_comparable_constructs,
            )
            for pair in entry.assessments
        ]

    ranked = [
        (entry.current_id, entry.rank, entry.min_novelty.hex(), entry.band, records(entry))
        for entry in report.ranked
    ]
    unmatched = [(entry.current_id, records(entry)) for entry in report.unmatched]
    assert all(
        (entry.rank, entry.min_novelty, entry.band) == (None, None, None) for entry in report.unmatched
    )
    return ranked, unmatched


@pytest.mark.parametrize("name", list(BACKENDS))
@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(
    past=corpora(Provenance.PAST, "P"),
    current=corpora(Provenance.CURRENT, "C"),
    threshold=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
)
def test_a_ranking_equals_the_reference(name, past, current, threshold):
    backend = BACKENDS[name]()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OovWarning)
        report = rank_current_problems(past, current, backend, threshold)
        reference = _reference(past, current, backend, threshold)
    assert _observed(report) == reference


class _Recording(SimilarityBackend):
    """Scores through ``inner`` and records the pairs of each ``similarities`` call."""

    def __init__(self, inner):
        self.inner, self.calls = inner, []

    def similarities(self, pairs):
        self.calls.append(list(pairs))
        return self.inner.similarities(pairs)


RANKINGS = hypothesis.given(
    past=corpora(Provenance.PAST, "P"),
    current=corpora(Provenance.CURRENT, "C"),
    threshold=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
)


@pytest.mark.parametrize("name", list(BACKENDS))
@hypothesis.settings(max_examples=20, deadline=None)
@RANKINGS
def test_a_ranking_makes_two_backend_calls_over_unique_pairs(name, past, current, threshold):
    """The gate call scores each unique (past, current) Action pair once, and
    the level call each unique level-text pair of the gated problem pairs once."""
    backend = _Recording(BACKENDS[name]())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OovWarning)
        rank_current_problems(past, current, backend, threshold)
        gate, levels = backend.calls
        past_actions = {_text(problem, ACTION) for problem in past.problems}
        current_actions = {_text(problem, ACTION) for problem in current.problems}
        assert len(gate) == len(past_actions) * len(current_actions)
        assert set(gate) == set(product(past_actions, current_actions))
        gated = [
            (reference, problem)
            for reference, problem in product(past.problems, current.problems)
            if backend.inner.similarity(_text(reference, ACTION), _text(problem, ACTION)) >= threshold
        ]
    level_pairs = {
        (_text(reference, level), _text(problem, level))
        for reference, problem in gated
        for level in NON_ACTION
        if _text(reference, level) and _text(problem, level)
    }
    assert len(levels) == len(level_pairs)
    assert set(levels) == level_pairs


@pytest.mark.parametrize("name", list(BACKENDS))
@hypothesis.settings(max_examples=20, deadline=None)
@RANKINGS
def test_each_distinct_similarity_off_the_float_path_pays_one_decimal_subtraction(
    name, past, current, threshold
):
    backend = BACKENDS[name]()
    context = CountingContext()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OovWarning)
        with mock.patch.object(novelty, "_CONTEXT", context):
            rank_current_problems(past, current, backend, threshold)
        ranked, unmatched = _reference(past, current, backend, threshold)
    records = [record for entry in ranked for record in entry[4]] + [
        record for entry in unmatched for record in entry[1]
    ]
    similarities = {float.fromhex(value) for record in records for _, value, _ in record[1]}
    off_path = sum(map(off_the_float_path, similarities))
    hypothesis.event(f"{off_path} of {len(similarities)} similarities off the float path")
    assert context.subtractions == off_path
