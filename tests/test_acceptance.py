"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v``; a PASS/FAIL line per
criterion is printed in the terminal summary (see conftest).

Corrected headline, no tolerance widened: criterion 1 requires every pair's
average novelty to land within +/-0.005 of its recorded headline value. The
source printed 0.70 for PS1-PS5, which contradicts its own six construct
scores: (0.679 + 0.680 + 0.629 + 0.699 + 0.725 + 0.822) / 6 = 4.234 / 6 =
0.70567, which half-up rounds to 0.71. Truncation would give 0.70 but breaks
PS2-PS4 (0.67867 -> 0.67, printed 0.68). The per-construct scores are
authoritative, so the headline is corrected to 0.71; the +/-0.005 tolerance,
the exact band labels and the 1 s bound are unchanged. Criterion 1 also checks
that every headline is the half-up rounding of its construct column and that
the report's construct novelties match those columns.
"""

import json
import math
import random
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from decimal import ROUND_HALF_UP, Decimal

import numpy as np
import pytest

from sapphire_novelty import (
    ConstructLevel,
    FixtureBackend,
    LexicalBackend,
    NoveltyBand,
    Provenance,
    RemoteBackend,
    WordVectorBackend,
    action_match,
    aggregate_novelty,
    assess_pair,
    classify_novelty,
    construct_novelty,
    load_corpus,
    make_constructs,
    rank_current_problems,
    render_json,
    save_corpus,
    text_similarity,
)
from sapphire_novelty.cli import main
from sapphire_novelty.data import (
    current_corpus_path,
    fixture_similarities_path,
    load_case_study,
    past_corpus_path,
)
from sapphire_novelty.problem_model import ProblemSapphire

from conftest import CASE_STUDY_NOVELTY, canned_vector, random_corpus
from vector_reference import cosine_similarity

NON_ACTION = [level for level in ConstructLevel if level is not ConstructLevel.ACTION]

EXPECTED_AVERAGES = {
    ("PS1", "PS3"): 0.55,
    ("PS1", "PS4"): 0.65,
    # The source printed 0.70, which contradicts its own six construct scores:
    # their mean is 4.234 / 6 = 0.70567, and half-up rounding gives 0.71.
    ("PS1", "PS5"): 0.71,
    ("PS2", "PS3"): 0.62,
    ("PS2", "PS4"): 0.68,
    ("PS2", "PS5"): 0.70,
}
EXPECTED_BANDS = {
    ("PS1", "PS3"): "medium",
    ("PS1", "PS4"): "medium",
    ("PS1", "PS5"): "high",
    ("PS2", "PS3"): "medium",
    ("PS2", "PS4"): "medium",
    ("PS2", "PS5"): "high",
}


def run_case_study_cli(tmp_path):
    out = tmp_path / "report.json"
    argv = [
        "assess",
        "--past", str(past_corpus_path()),
        "--current", str(current_corpus_path()),
        "--backend", "fixture",
        "--fixtures", str(fixture_similarities_path()),
        "--format", "json",
        "--out", str(out),
    ]
    started = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - started
    assert code == 0
    return json.loads(out.read_text(encoding="utf-8")), elapsed


def headline(column):
    """Two-decimal half-up rounding of a construct column's mean."""
    mean = math.fsum(column) / len(column)
    return float(Decimal(repr(mean)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def test_criterion_1_table_replay(tmp_path):
    """All 6 pair averages within +/-0.005 of the recorded values, bands exact, <1s.

    Each recorded headline must also be the rounded mean of its construct
    column, and the report's construct novelties must match those columns.
    """
    failures = []
    for key, expected in EXPECTED_AVERAGES.items():
        from_column = headline(CASE_STUDY_NOVELTY[key])
        if from_column != expected:
            failures.append(
                f"{key[0]}-{key[1]}: data error, headline {expected} is not the rounded "
                f"mean {from_column} of its construct column"
            )
    payload, elapsed = run_case_study_cli(tmp_path)
    pairs = {(p["past_id"], p["current_id"]): p for p in payload["pairs"]}
    for key, column in CASE_STUDY_NOVELTY.items():
        reported = pairs[key]["construct_novelty"]
        for level, expected in zip(NON_ACTION, column):
            if abs(reported[level.value] - expected) > 1e-12:
                failures.append(
                    f"{key[0]}-{key[1]}: {level.value} novelty {reported[level.value]} "
                    f"!= column value {expected}"
                )
    for key, expected in EXPECTED_AVERAGES.items():
        computed = pairs[key]["average_novelty"]
        if abs(computed - expected) > 0.005:
            failures.append(
                f"{key[0]}-{key[1]}: average {computed:.5f} deviates "
                f"{abs(computed - expected):.5f} > 0.005 from {expected}"
            )
    for key, expected_band in EXPECTED_BANDS.items():
        if pairs[key]["band"] != expected_band:
            failures.append(f"{key[0]}-{key[1]}: band {pairs[key]['band']} != {expected_band}")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s exceeds 1s")
    assert not failures, "; ".join(failures)


def test_criterion_2_ranking(tmp_path):
    """PS5 (0.70) ranks above PS4 (0.65) above PS3 (0.55); exact order match."""
    payload, _ = run_case_study_cli(tmp_path)
    ranking = payload["ranking"]
    assert [entry["current_id"] for entry in ranking] == ["PS5", "PS4", "PS3"]
    assert [entry["rank"] for entry in ranking] == [1, 2, 3]
    expected_minima = {"PS5": 0.70, "PS4": 0.65, "PS3": 0.55}
    for entry in ranking:
        assert abs(entry["min_novelty"] - expected_minima[entry["current_id"]]) <= 0.005
        assert entry["min_novelty_display"] == f"{expected_minima[entry['current_id']]:.2f}"


def test_criterion_3_novelty_identity():
    """construct_novelty(0.314) equals 0.686 exactly."""
    assert construct_novelty(0.314) == 0.686


def test_criterion_4_aggregation_oracle():
    """Independent fsum oracle reproduces aggregate_novelty to 1e-12 on 10,000 maps."""
    rng = random.Random(104)
    for _ in range(10_000):
        included = rng.sample(NON_ACTION, rng.randint(1, len(NON_ACTION)))
        scores = {level: rng.random() for level in included}
        oracle = math.fsum(scores[level] for level in included) / len(included)
        assert abs(aggregate_novelty(scores, included) - oracle) <= 1e-12


class TestCriterion5SimilarityProperties:
    WORDS = [
        "kettle", "water", "steam", "lid", "heat", "coil", "spout",
        "boil", "spill", "seal", "valve", "handle",
    ]

    def _texts(self, rng, count):
        return [
            " ".join(rng.choice(self.WORDS) for _ in range(rng.randint(1, 6)))
            for _ in range(count)
        ]

    def test_criterion_5_lexical_symmetry_identity_range(self):
        rng = random.Random(105)
        backend = LexicalBackend()
        texts = self._texts(rng, 120)
        for _ in range(1000):
            a, b = rng.choice(texts), rng.choice(texts)
            forward = text_similarity(a, b, backend)
            assert forward == text_similarity(b, a, backend)
            assert 0.0 <= forward <= 1.0
        for text in texts:
            assert text_similarity(text, text, backend) == 1.0

    def test_criterion_5_wordvector_symmetry_identity_range(self):
        rng = random.Random(106)
        table = {
            word: np.array([rng.uniform(-1, 1) for _ in range(12)]) for word in self.WORDS
        }
        backend = WordVectorBackend(table=table)
        texts = self._texts(rng, 120)
        for _ in range(1000):
            a, b = rng.choice(texts), rng.choice(texts)
            forward = text_similarity(a, b, backend)
            assert forward == text_similarity(b, a, backend)
            assert 0.0 <= forward <= 1.0
        for text in texts:
            assert text_similarity(text, text, backend) == 1.0

    def test_criterion_5_fixture_symmetry_range(self):
        rng = random.Random(107)
        texts = [f"pinned construct text {i}" for i in range(50)]
        table = {}
        for i, a in enumerate(texts):
            for b in texts[i:]:
                key = tuple(sorted((a.casefold(), b.casefold())))
                table[key] = round(rng.random(), 6)
        backend = FixtureBackend(table=table)
        for _ in range(1000):
            a, b = rng.choice(texts), rng.choice(texts)
            forward = text_similarity(a, b, backend)
            assert forward == text_similarity(b, a, backend)
            assert 0.0 <= forward <= 1.0

    def test_criterion_5_cosine_against_direct_formula(self):
        rng = random.Random(108)
        checked = 0
        while checked < 1000:
            dim = rng.randint(1, 32)
            u = [rng.uniform(-10, 10) for _ in range(dim)]
            v = [rng.uniform(-10, 10) for _ in range(dim)]
            norm_u = math.sqrt(math.fsum(x * x for x in u))
            norm_v = math.sqrt(math.fsum(x * x for x in v))
            if norm_u == 0.0 or norm_v == 0.0:
                continue
            oracle = math.fsum(a * b for a, b in zip(u, v)) / (norm_u * norm_v)
            assert abs(cosine_similarity(u, v) - oracle) <= 1e-9
            checked += 1


class TestCriterion6PipelineProperties:
    def _problem(self, problem_id, provenance, **constructs):
        constructs.setdefault("action", "spilling of liquid")
        return ProblemSapphire(
            id=problem_id,
            label=problem_id,
            provenance=provenance,
            constructs=make_constructs(**constructs),
        )

    def test_criterion_6_gate_consistency(self):
        rng = random.Random(109)
        actions = ["boil water", "spill liquid", "clean base", "steam burst", "boil water fast"]
        backend = LexicalBackend()
        for _ in range(500):
            past = self._problem("A", Provenance.PAST, action=rng.choice(actions), parts="p q")
            current = self._problem(
                "B", Provenance.CURRENT, action=rng.choice(actions), parts="p r"
            )
            matched, _ = action_match(past, current, backend)
            assessment = assess_pair(past, current, backend)
            assert (assessment is None) == (not matched)

    def test_criterion_6_monotonicity(self):
        rng = random.Random(110)
        for _ in range(1000):
            similarities = {level: rng.random() for level in NON_ACTION}
            base = aggregate_novelty(
                {level: construct_novelty(s) for level, s in similarities.items()}, NON_ACTION
            )
            level = rng.choice(NON_ACTION)
            raised = dict(similarities)
            raised[level] = min(1.0, raised[level] + rng.uniform(0.0, 1.0))
            bumped = aggregate_novelty(
                {level_: construct_novelty(s) for level_, s in raised.items()}, NON_ACTION
            )
            assert bumped <= base + 1e-15

    def test_criterion_6_band_monotonicity(self):
        scores = [i / 2000 for i in range(2001)]
        bands = [classify_novelty(score) for score in scores]
        assert all(a <= b for a, b in zip(bands, bands[1:]))
        assert bands[0] is NoveltyBand.LOW and bands[-1] is NoveltyBand.HIGH

    def test_criterion_6_reports_byte_identical_across_repeats_and_threads(self, tmp_path):
        past, current, backend = load_case_study()

        def render_once(_):
            return render_json(rank_current_problems(past, current, backend))

        reference = render_once(None)
        assert render_once(None) == reference
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(render_once, range(16)))
        assert all(result == reference for result in results)

        first, second = tmp_path / "a.json", tmp_path / "b.json"
        argv = [
            "assess",
            "--past", str(past_corpus_path()),
            "--current", str(current_corpus_path()),
            "--backend", "fixture",
            "--fixtures", str(fixture_similarities_path()),
            "--format", "json",
        ]
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


def test_criterion_7_persistence_round_trip(tmp_path):
    """Save -> strict load is the identity on 100 random corpora, and silent."""
    rng = random.Random(111)
    for index in range(100):
        role = rng.choice([Provenance.PAST, Provenance.CURRENT])
        corpus = random_corpus(rng, f"corpus{index}", role, rng.randint(1, 8))
        path = tmp_path / f"{corpus.name}.jsonl"
        save_corpus(corpus, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reloaded = load_corpus(path, role, strict=True)
        assert reloaded == corpus


class TestCriterion8NonReproducibility:
    """The pinned cross-construct scores come from an external embedding model;
    deterministic backends cannot recover them from text, only the fixture
    replay can, and the remote wire protocol is verified against a stub."""

    SENTENCE_A = "Contained to leak body"
    SENTENCE_B = "static to movable liquid"

    def test_criterion_8_deterministic_backends_do_not_reproduce_pinned_value(self):
        lexical = text_similarity(self.SENTENCE_A, self.SENTENCE_B, LexicalBackend())
        assert lexical == 0.25  # one shared token of four per side: 1/(2*2)
        assert lexical != 0.314

        rng = random.Random(112)
        vocabulary = sorted(set((self.SENTENCE_A + " " + self.SENTENCE_B).lower().split()))
        table = {
            word: np.array([rng.uniform(-1, 1) for _ in range(16)]) for word in vocabulary
        }
        wordvec = text_similarity(self.SENTENCE_A, self.SENTENCE_B, WordVectorBackend(table=table))
        assert abs(wordvec - 0.314) > 1e-6

    def test_criterion_8_fixture_replays_pinned_value_exactly(self):
        backend = FixtureBackend.from_file(fixture_similarities_path())
        assert text_similarity(self.SENTENCE_A, self.SENTENCE_B, backend) == 0.314

    def test_criterion_8_remote_wire_protocol_shape_and_ordering(self, embed_stub):
        backend = RemoteBackend(endpoint=embed_stub.url, batch_size=2)
        texts = ["one text", "another text", "a third"]
        vectors = backend.embed_texts(texts)
        assert [list(v) for v in vectors] == [canned_vector(t) for t in texts]
        assert [len(batch) for batch in embed_stub.batches] == [2, 1]

    def test_criterion_8_remote_retry_and_error_paths(self, embed_stub):
        from sapphire_novelty import BackendUnavailableError

        embed_stub.fail_remaining = 2
        backend = RemoteBackend(endpoint=embed_stub.url)
        assert backend.embed_texts(["a b"])  # succeeds on the third attempt

        embed_stub.fail_remaining = 99
        with pytest.raises(BackendUnavailableError):
            RemoteBackend(endpoint=embed_stub.url).embed_texts(["a b"])

        embed_stub.fail_remaining = 0
        embed_stub.mode = "bad_count"
        with pytest.raises(BackendUnavailableError):
            RemoteBackend(endpoint=embed_stub.url).embed_texts(["a", "b"])
