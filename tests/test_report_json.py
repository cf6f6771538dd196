"""The JSON writer against ``json.dumps(payload, ensure_ascii=False, indent=2)``.

``render_json`` writes the report's schema directly. The oracle here builds
the payload as dicts and lists, the way the report was once rendered, and
hands it to ``json.dumps``; the two must give the same text for any report,
including hand-built ones the pipeline never makes.
"""

import json
import tracemalloc
from itertools import combinations

import hypothesis
import pytest
from hypothesis import strategies as st

from sapphire_novelty import (
    ConstructLevel,
    NoveltyBand,
    NoveltyReport,
    PairAssessment,
    ProblemNovelty,
    rank_current_problems,
    render_json,
    round_half_up,
)
from sapphire_novelty.data import load_case_study

LEVELS = list(ConstructLevel)
NON_ACTION = LEVELS[1:]


def _display(value, digits):
    return f"{round_half_up(value, digits):.{digits}f}"


def _by_key(scores):
    return {level.key: scores[level] for level in ConstructLevel if level in scores}


def oracle_payload(report):
    """The report as plain JSON data: metadata, pairs, ranking and unmatched ids."""
    assessments = [a for entry in report.entries for a in entry.assessments]
    assessments.sort(key=lambda a: (a.past_id, a.current_id))
    pairs = []
    for a in assessments:
        novelty = _by_key(a.construct_novelty)
        pairs.append(
            {
                "past_id": a.past_id,
                "current_id": a.current_id,
                "construct_similarity": _by_key(a.construct_similarity),
                "construct_novelty": novelty,
                "construct_novelty_display": {k: _display(v, 3) for k, v in novelty.items()},
                "included_levels": [level.key for level in a.included_levels],
                "average_novelty": a.average_novelty,
                "average_novelty_display": (
                    None if a.average_novelty is None else _display(a.average_novelty, 2)
                ),
                "band": None if a.band is None else a.band.value,
                "no_comparable_constructs": a.no_comparable_constructs,
            }
        )
    ranking = [
        {
            "rank": entry.rank,
            "current_id": entry.current_id,
            "min_novelty": entry.min_novelty,
            "min_novelty_display": _display(entry.min_novelty, 2),
            "band": entry.band.value,
        }
        for entry in report.ranked
    ]
    return {
        "backend": report.backend_kind,
        "threshold": report.threshold,
        "past_corpus": report.past_corpus,
        "current_corpus": report.current_corpus,
        "pairs": pairs,
        "ranking": ranking,
        "unmatched": [entry.current_id for entry in report.unmatched],
    }


def oracle_json(report, summary_only):
    payload = oracle_payload(report)
    if summary_only:
        del payload["pairs"]
    return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"


# Characters JSON must escape, or that are easy to get wrong without ensure_ascii:
# quote, backslash, controls, DEL, the Unicode line and paragraph separators,
# a byte-order mark, non-ASCII letters and an astral-plane emoji.
AWKWARD = '"\\/\x00\x01\x1f\x7f\b\f\n\r\t\u2028\u2029\ufeffé日\U0001f600 '
texts = st.text(st.one_of(st.sampled_from(AWKWARD), st.characters()), min_size=1, max_size=12)
scores = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, 1.0, 0.675, 0.0005, 0.005]))
bands = st.sampled_from(list(NoveltyBand))


@st.composite
def level_maps(draw, required=None):
    """A level -> score map over a random subset of levels, in random insertion order."""
    levels = draw(st.lists(st.sampled_from(LEVELS), unique=True))
    if required is not None and required not in levels:
        levels.insert(draw(st.integers(0, len(levels))), required)
    return {level: draw(scores) for level in levels}


@st.composite
def assessments(draw, current_id=None):
    included = draw(st.lists(st.sampled_from(NON_ACTION), unique=True))
    comparable = draw(st.booleans())
    return PairAssessment(
        past_id=draw(texts),
        current_id=current_id if current_id is not None else draw(texts),
        construct_similarity=draw(level_maps(required=ConstructLevel.ACTION)),
        construct_novelty=draw(level_maps()),
        included_levels=tuple(included),
        average_novelty=draw(scores) if comparable else None,
        band=draw(bands) if comparable else None,
        no_comparable_constructs=not comparable,
    )


@st.composite
def entries(draw, ranked):
    current_id = draw(texts)
    pairs = tuple(draw(st.lists(assessments(current_id), max_size=4)))
    if not ranked:
        return ProblemNovelty(current_id=current_id, assessments=pairs)
    return ProblemNovelty(
        current_id=current_id,
        assessments=pairs,
        min_novelty=draw(scores),
        band=draw(bands),
        rank=draw(st.integers(1, 10_000)),
    )


reports = st.builds(
    NoveltyReport,
    backend_kind=texts,
    threshold=st.one_of(st.integers(0, 1), st.floats(0.0, 1.0)),
    past_corpus=texts,
    current_corpus=texts,
    ranked=st.lists(entries(ranked=True), max_size=4).map(tuple),
    unmatched=st.lists(entries(ranked=False), max_size=4).map(tuple),
)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(report=reports, summary_only=st.booleans())
def test_writer_matches_json_dumps(report, summary_only):
    assert render_json(report, summary_only) == oracle_json(report, summary_only)


def _pair(past_id, current_id, comparable=True):
    similarity = {ConstructLevel.ACTION: 0.9}
    if comparable:
        similarity[ConstructLevel.PARTS] = 0.314
    return PairAssessment(
        past_id=past_id,
        current_id=current_id,
        construct_similarity=similarity,
        construct_novelty={level: round(1 - value, 3) for level, value in similarity.items()},
        included_levels=(ConstructLevel.PARTS,) if comparable else (),
        average_novelty=0.686 if comparable else None,
        band=NoveltyBand.MEDIUM if comparable else None,
        no_comparable_constructs=not comparable,
    )


EDGE_REPORTS = {
    "empty": NoveltyReport("lexical", 0.7, "past", "current"),
    "int-threshold": NoveltyReport("lexical", 1, "past", "current"),
    "only-unmatched": NoveltyReport(
        "fixture",
        0.0,
        "p ast",
        'cur"rent',
        unmatched=(ProblemNovelty("c\\1", ()), ProblemNovelty("c\x002", ())),
    ),
    "no-comparable-pairs": NoveltyReport(
        "fixture",
        0.5,
        "past",
        "current",
        unmatched=(ProblemNovelty("c1", (_pair("p2", "c1", False), _pair("p10", "c1", False))),),
    ),
    "mixed": NoveltyReport(
        "lexical",
        0.3,
        "日本",
        "café",
        ranked=(
            ProblemNovelty(
                "c1", (_pair("p1", "c1"), _pair("p2", "c1", False)), 0.686, NoveltyBand.MEDIUM, 1
            ),
        ),
        unmatched=(ProblemNovelty("c2", (_pair("p1", "c2", False),)),),
    ),
    # The writer joins the pairs in at the text '"pairs": null' and splits
    # each layout's text at null (it once filled %s holes); no string value
    # may be taken for either.
    "null-texts": NoveltyReport(
        '"pairs": null',
        0.7,
        "null",
        "%s",
        ranked=(
            ProblemNovelty(
                '"pairs": null',
                (_pair("%s", '"pairs": null'), _pair("null", '"pairs": null', False)),
                0.686,
                NoveltyBand.MEDIUM,
                1,
            ),
        ),
        unmatched=(ProblemNovelty("%s", (_pair('"pairs": null', "%s", False),)),),
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_REPORTS))
@pytest.mark.parametrize("summary_only", [False, True])
def test_edge_reports_match_json_dumps(name, summary_only):
    report = EDGE_REPORTS[name]
    assert render_json(report, summary_only) == oracle_json(report, summary_only)


@pytest.mark.parametrize("threshold", [0.0, 0.7])
@pytest.mark.parametrize("summary_only", [False, True])
def test_case_study_matches_json_dumps(threshold, summary_only):
    past, current, backend = load_case_study()
    report = rank_current_problems(past, current, backend, threshold)
    assert render_json(report, summary_only) == oracle_json(report, summary_only)


@pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
def test_both_zeros_in_one_report_match_json_dumps(first, second):
    # 0.0 and -0.0 are equal dict keys whose reprs differ, so a writer that
    # formats each score once must never serve one zero's text for the other.
    parts = ConstructLevel.PARTS

    def pair(past_id, zero):
        scores = {ConstructLevel.ACTION: zero, parts: zero}
        return PairAssessment(past_id, "c1", scores, scores, (parts,), zero, NoveltyBand.LOW)

    report = NoveltyReport(
        "lexical",
        0.0,
        "past",
        "current",
        ranked=(
            ProblemNovelty("c1", (pair("p1", first), pair("p2", second)), first, NoveltyBand.LOW, 1),
            ProblemNovelty("c2", (), second, NoveltyBand.LOW, 2),
        ),
    )
    rendered = render_json(report)
    assert rendered == oracle_json(report, False)
    assert '"parts": -0.0' in rendered and '"parts": 0.0' in rendered


@pytest.mark.parametrize("comparable", [True, False])
def test_every_pair_layout_matches_json_dumps(comparable):
    # Each subset of the non-Action levels, as the levels of one pair's maps
    # and average, gives one template of the writer.
    for size in range(len(NON_ACTION) + 1):
        for shared in combinations(NON_ACTION, size):
            similarity = {ConstructLevel.ACTION: 0.9}
            similarity.update({level: 0.125 * (index + 1) for index, level in enumerate(shared)})
            pair = PairAssessment(
                "p1",
                "c1",
                similarity,
                {level: 1 - value for level, value in similarity.items()},
                shared,
                0.5 if comparable else None,
                NoveltyBand.MEDIUM if comparable else None,
                not comparable,
            )
            report = NoveltyReport(
                "lexical", 0.7, "past", "current", unmatched=(ProblemNovelty("c1", (pair,)),)
            )
            assert render_json(report) == oracle_json(report, False)


def test_the_writer_holds_less_than_two_copies_of_its_text():
    # The pairs are appended as shared pieces to one list that is joined once,
    # so a render's traced peak is the text plus that list's references. A
    # string built per pair and then joined would hold a second copy.
    scores = [0.0, 0.125, 0.5, 0.875, 1.0]
    ranked = []
    for c in range(50):
        pairs = []
        for p in range(60):
            score = scores[(p + c) % len(scores)]
            similarity = dict.fromkeys(LEVELS, score)
            novelty = dict.fromkeys(LEVELS, 1.0 - score)
            band = NoveltyBand.LOW if score > 0.5 else NoveltyBand.HIGH
            pairs.append(
                PairAssessment(f"p{p}", f"c{c}", similarity, novelty, tuple(NON_ACTION), 1.0 - score, band)
            )
        ranked.append(ProblemNovelty(f"c{c}", tuple(pairs), 0.0, NoveltyBand.LOW, c + 1))
    report = NoveltyReport("lexical", 0.7, "past", "current", ranked=tuple(ranked))
    render_json(report)
    tracemalloc.start()
    try:
        text = render_json(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.85 * len(text), (peak / len(text), len(text))
