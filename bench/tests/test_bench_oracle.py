"""The oracles agree with the library; the checks accept good reports and catch bad ones."""

import numpy as np
import pytest

import gen
from checks import check_kettle, check_rendered, check_report
from oracle import (
    SIMILARITY_TOLERANCE,
    MeanPool,
    fixture_similarity,
    gate_count,
    lexical_similarity,
    vector_similarity,
)
from run import expectations
from sapphire_novelty import (
    ConstructLevel,
    LexicalBackend,
    Provenance,
    RemoteBackend,
    WordVectorBackend,
    load_corpus,
    rank_current_problems,
    render_report,
    text_similarity,
)
from sapphire_novelty.data import fixture_similarities_path, load_case_study
from stub import StubServer, stub_vector


def _level_pairs(past, current):
    for p in past.problems:
        for c in current.problems:
            for level in ConstructLevel:
                if level in p.constructs and level in c.constructs:
                    yield p.constructs[level], c.constructs[level]


def _assert_agree(pairs, oracle, backend):
    pairs = list(pairs)
    assert pairs
    for a, b in pairs:
        assert abs(text_similarity(a, b, backend) - oracle(a, b)) <= SIMILARITY_TOLERANCE, (a, b)


def test_case_study_fixture_and_lexical_oracles():
    past, current, fixture_backend = load_case_study()
    pairs = list(_level_pairs(past, current))
    _assert_agree(pairs, fixture_similarity(str(fixture_similarities_path())), fixture_backend)
    _assert_agree(pairs, lexical_similarity, LexicalBackend())


def test_case_study_passes_the_kettle_check():
    past, current, backend = load_case_study()
    text = render_report(rank_current_problems(past, current, backend), "table")
    assert check_kettle(text) == []
    broken = text.replace("High Novelty", "Medium Novelty", 1)
    assert check_kettle(broken) != []


def _small(workload, tmp_path):
    inputs = gen.generate(workload, 5, tmp_path)
    past = load_corpus(inputs.past_path, Provenance.PAST)
    current = load_corpus(inputs.current_path, Provenance.CURRENT)
    return inputs, past, current


def test_lexical_oracle_on_generated_corpus(tmp_path):
    _, past, current = _small("dense-lexical-json", tmp_path)
    sub_past = type(past)(past.name, past.role, past.problems[:6])
    sub_current = type(current)(current.name, current.role, current.problems[:6])
    _assert_agree(_level_pairs(sub_past, sub_current), lexical_similarity, LexicalBackend())


def test_lexical_oracle_on_repeated_tokens():
    backend = LexicalBackend()
    for a, b in [("liquid liquid spill", "spill liquid"), ("a b c", "c b a"), ("x", "y z")]:
        assert abs(text_similarity(a, b, backend) - lexical_similarity(a, b)) <= SIMILARITY_TOLERANCE


def test_mean_pool_oracle_with_oov_words(tmp_path):
    words = ["boil", "spill", "lid", "vent", "steam"]
    matrix = np.random.default_rng(0).integers(-9999, 10000, size=(len(words), 8)) / 10000
    path = tmp_path / "vectors.txt"
    path.write_text("".join(w + " " + " ".join(f"{v:.4f}" for v in row) + "\n" for w, row in zip(words, matrix)))
    backend = WordVectorBackend.from_file(path)
    oracle = MeanPool(words, matrix).similarity
    texts = ["boil spill", "lid vent steam", "spill unknown", "unknown words only", "steam", "boil boil lid"]
    with pytest.warns(UserWarning):
        _assert_agree([(a, b) for a in texts for b in texts], oracle, backend)


def test_stub_vector_oracle_matches_remote_backend():
    server = StubServer()
    server.start_thread()
    try:
        backend = RemoteBackend(endpoint=server.url)
        texts = ["spilling of liquid", "liquid spilling", "hot steam at the vent", "kettle base"]
        _assert_agree([(a, b) for a in texts for b in texts], vector_similarity(stub_vector), backend)
    finally:
        server.shutdown()
        server.server_close()


def test_gate_oracle_and_checks_on_wordvec_corpus(tmp_path):
    inputs, past, current = _small("sparse-wordvec-rank", tmp_path)
    past = type(past)(past.name, past.role, past.problems[:150])
    inputs.past = inputs.past[:150]
    backend = WordVectorBackend.from_file(inputs.vectors_path)
    with pytest.warns(UserWarning):
        report = rank_current_problems(past, current, backend)
    expect = expectations(inputs, 5)
    low, high = expect["gate"]
    gated = sum(len(entry.assessments) for entry in report.entries)
    assert low <= gated <= high and gated > 0
    assert check_report(report, expect) == []
    text = render_report(report, "table", summary_only=True)
    assert check_rendered(text, "table", report) == []


def test_checks_catch_a_wrong_similarity(tmp_path):
    inputs, past, current = _small("dense-lexical-json", tmp_path)
    report = rank_current_problems(past, current, LexicalBackend())
    expect = expectations(inputs, 5)
    assert check_report(report, expect) == []
    past_id, current_id, level, value = expect["samples"][0]
    expect["samples"][0] = [past_id, current_id, level, value + 1e-6]
    assert any("oracle" in failure for failure in check_report(report, expect))
    expect["gate"] = [0, 5]
    assert any("gate" in failure for failure in check_report(report, expect))


def test_gate_count_weights_unique_pairs():
    assert gate_count(["a b", "a b", "c"], ["a b", "d"], lexical_similarity, 0.7) == (2, 2)


def test_dense_corpus_has_pairs_with_no_comparable_level(tmp_path):
    inputs, past, current = _small("dense-lexical-json", tmp_path)
    report = rank_current_problems(past, current, LexicalBackend())
    bare = [a for entry in report.entries for a in entry.assessments if a.no_comparable_constructs]
    assert len(bare) == len(past.problems) + len(current.problems) - 1
    assert [entry.current_id for entry in report.unmatched] == [current.problems[-1].id]
    assert check_report(report, expectations(inputs, 5)) == []
    text = render_report(report, "json")
    assert check_rendered(text, "json", report) == []
