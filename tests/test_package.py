"""Package layout: the public names, the lazily loaded vector backends and the
tokenizer seam that every backend shares."""

from collections import Counter

import numpy as np
import pytest

import sapphire_novelty
from sapphire_novelty import LexicalBackend, remote, similarity, vectors

# Every public name of the package, in its import order.
PUBLIC_NAMES = [
    "CorpusFormatError", "CorpusWarning", "import_survey_csv", "load_corpus", "save_corpus",
    "DEFAULT_ACTION_THRESHOLD", "NoveltyBand", "NoveltyReport", "OScoreInput",
    "PairAssessment", "ProblemNovelty", "action_match", "aggregate_novelty", "assess_pair",
    "classify_novelty", "construct_novelty", "o_score", "rank_current_problems",
    "round_half_up",
    "CANONICAL_LEVEL_KEYS", "ConstructLevel", "ProblemCorpus", "ProblemSapphire",
    "Provenance", "Violation", "construct_text", "make_constructs", "validate_corpus",
    "validate_problem",
    "render_csv", "render_json", "render_report", "render_table",
    "BackendUnavailableError", "FixtureBackend", "FixtureFormatError", "LexicalBackend",
    "MissingFixtureError", "OovWarning", "RemoteBackend", "SimilarityBackend",
    "WordVectorBackend", "WordVectorFormatError", "load_fixture_similarities",
    "load_word_vectors", "text_similarity", "tokenize",
]

# The names served lazily, each by the module that defines it.
VECTOR_NAMES = {
    "RemoteBackend": remote, "WordVectorBackend": vectors, "load_word_vectors": vectors,
}


class TestPublicNames:
    def test_all_lists_every_public_name(self):
        assert sapphire_novelty.__all__ == PUBLIC_NAMES

    def test_every_public_name_resolves(self):
        for name in PUBLIC_NAMES:
            assert getattr(sapphire_novelty, name) is not None, name

    def test_star_import_binds_the_vector_names(self):
        namespace: dict = {}
        exec("from sapphire_novelty import *", namespace)
        for name, module in VECTOR_NAMES.items():
            assert namespace[name] is getattr(module, name)

    def test_vector_names_come_from_the_vectors_module(self):
        assert sapphire_novelty.WordVectorBackend is vectors.WordVectorBackend
        assert sapphire_novelty.RemoteBackend is remote.RemoteBackend
        assert not hasattr(vectors, "RemoteBackend")
        for name in VECTOR_NAMES:
            assert not hasattr(similarity, name)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            sapphire_novelty.no_such_name

    @pytest.mark.parametrize("module", [sapphire_novelty, vectors], ids=["package", "vectors"])
    @pytest.mark.parametrize("name", ["cosine_similarity", "embed_wordvector"])
    def test_scalar_vector_references_are_not_in_the_package(self, module, name):
        with pytest.raises(AttributeError, match=name):
            getattr(module, name)


class TestTokenizerSeam:
    """Both token-based backends tokenize through ``similarity.tokenize`` as
    looked up at call time, so replacing that attribute reaches both."""

    PAIRS = [("spilling liquid", "hot steam"), ("hot steam", "spilling liquid"),
             ("spilling liquid", "loose lid")]

    @pytest.fixture
    def calls(self, monkeypatch):
        seen: Counter = Counter()
        original = similarity.tokenize

        def counting(text, *args, **kwargs):
            seen[text] += 1
            return original(text, *args, **kwargs)

        monkeypatch.setattr(similarity, "tokenize", counting)
        return seen

    @pytest.mark.parametrize(
        "backend",
        [
            LexicalBackend(),
            vectors.WordVectorBackend(
                table={word: np.array([float(len(word)), 1.0])
                       for word in ("spilling", "liquid", "hot", "steam", "loose", "lid")}
            ),
        ],
        ids=["lexical", "wordvec"],
    )
    def test_each_unique_text_is_tokenized_once_through_the_module(self, calls, backend):
        backend.similarities(self.PAIRS)
        assert calls == Counter({"spilling liquid": 1, "hot steam": 1, "loose lid": 1})
