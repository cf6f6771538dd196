import math
import random
import warnings
from collections.abc import Mapping

import numpy as np
import pytest

from sapphire_novelty import (
    FixtureBackend,
    FixtureFormatError,
    LexicalBackend,
    MissingFixtureError,
    OovWarning,
    SimilarityBackend,
    WordVectorBackend,
    WordVectorFormatError,
    load_fixture_similarities,
    load_word_vectors,
    text_similarity,
    tokenize,
)

from vector_reference import cosine_similarity, embed_wordvector


class TestTokenize:
    def test_plain_phrase(self):
        assert tokenize("Spilling of the liquid") == ["spilling", "of", "the", "liquid"]

    def test_hyphens_and_case(self):
        assert tokenize("static-to-movable LIQUID") == ["static", "to", "movable", "liquid"]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_punctuation_only(self):
        assert tokenize("--- ... !!!") == []

    def test_underscore_is_a_separator(self):
        assert tokenize("state_change") == ["state", "change"]

    def test_unicode_word_characters_survive(self):
        assert tokenize("Überdruck im café!") == ["überdruck", "im", "café"]

    def test_deterministic(self):
        text = "Boiling;water,overflows--fast"
        assert tokenize(text) == tokenize(text)

    def test_takes_only_the_text(self):
        with pytest.raises(TypeError):
            tokenize("spilling of the liquid", ["of", "the"])
        with pytest.raises(TypeError):
            tokenize("spilling of the liquid", stopwords=["of", "the"])


class TestCosineSimilarity:
    def test_identical_unit_vectors(self):
        assert cosine_similarity((1, 0, 0), (1, 0, 0)) == 1.0

    def test_orthogonal(self):
        assert cosine_similarity((1, 0), (0, 1)) == 0.0

    def test_hand_computed_inverse_sqrt2(self):
        # dot = 1, norms sqrt(2) and 1 -> 1/sqrt(2)
        assert cosine_similarity((1, 1, 0), (1, 0, 0)) == pytest.approx(0.70710678, abs=1e-8)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            cosine_similarity((1, 0), (1, 0, 0))

    def test_both_zero_is_zero_with_warning(self):
        with pytest.warns(OovWarning):
            assert cosine_similarity((0, 0), (0.0, 0.0)) == 0.0

    def test_single_zero_is_zero_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cosine_similarity((0, 0), (1, 2)) == 0.0

    def test_agrees_with_direct_formula_oracle(self):
        rng = random.Random(7)
        for _ in range(300):
            dim = rng.randint(1, 24)
            u = [rng.uniform(-5, 5) for _ in range(dim)]
            v = [rng.uniform(-5, 5) for _ in range(dim)]
            if not any(u) or not any(v):
                continue
            oracle = math.fsum(a * b for a, b in zip(u, v)) / (
                math.sqrt(math.fsum(a * a for a in u)) * math.sqrt(math.fsum(b * b for b in v))
            )
            assert cosine_similarity(u, v) == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_component_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            cosine_similarity([bad, 1.0], [1.0, 0.0])
        with pytest.raises(ValueError, match="non-finite"):
            cosine_similarity([1.0, 0.0], [1.0, bad])

    @pytest.mark.parametrize(
        "vector",
        [[1e200, 1.0], [1.4e154], [1e-170, 1e-170], [1e-160, 0.0], [np.nextafter(2.0**-511, 0.0)]],
        ids=["overflow", "overflow-at-the-edge", "underflow", "subnormal", "underflow-at-the-edge"],
    )
    def test_squared_norm_that_overflows_or_underflows_rejected(self, vector):
        other = [1.0] + [0.0] * (len(vector) - 1)
        for u, v in ((vector, other), (other, vector)):
            with pytest.raises(ValueError, match="squared norm overflows or underflows"):
                cosine_similarity(u, v)

    def test_squared_norms_at_the_edges_are_scored(self):
        # 2**-511 squares to the smallest normal float; 1.3e154 squares to about 1.7e308.
        assert cosine_similarity([2.0**-511, 0.0], [1.0, 0.0]) == 1.0
        assert cosine_similarity([1.3e154, 0.0], [1.0, 1.0]) == pytest.approx(2**-0.5)

    def test_result_stays_within_unit_interval(self):
        rng = random.Random(3)
        for _ in range(200):
            scale = rng.uniform(0.1, 1e6)
            u = [rng.uniform(-1, 1) * scale for _ in range(4)]
            assert -1.0 <= cosine_similarity(u, u) <= 1.0
            assert -1.0 <= cosine_similarity(u, [-x for x in u]) <= 1.0


class TestEmbedWordVector:
    def test_single_word(self):
        table = {"hot": np.array([1.0, 0.0])}
        assert list(embed_wordvector("hot", table)) == [1.0, 0.0]

    def test_mean_pooling(self):
        table = {"hot": np.array([1.0, 0.0]), "cold": np.array([0.0, 1.0])}
        assert list(embed_wordvector("hot cold", table)) == [0.5, 0.5]

    def test_all_oov_returns_zero_sentinel_with_warning(self):
        table = {"hot": np.array([1.0, 0.0])}
        with pytest.warns(OovWarning, match="^'xyzzy' scores 0.0 against every text: none of its tokens"):
            vector = embed_wordvector("xyzzy", table)
        assert list(vector) == [0.0, 0.0]

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            embed_wordvector("hot", {})

    def test_vectors_that_cancel_return_zero_sentinel_with_warning(self):
        table = {"heat": np.array([1.0, 0.0]), "cold": np.array([-1.0, 0.0])}
        message = "^'heat cold' scores 0.0 against every text: its word vectors sum to zero$"
        with pytest.warns(OovWarning, match=message):
            vector = embed_wordvector("heat cold", table)
        assert list(vector) == [0.0, 0.0]


class TestWordVectorBackendTable:
    @pytest.mark.parametrize(
        "table, message",
        [
            ({"hot": [float("nan"), 1.0], "cold": [1.0, 0.0]}, "'hot'.*finite"),
            ({"hot": [1.0, 0.0], "cold": [float("inf"), 0.0]}, "'cold'.*finite"),
            ({"hot": [1.0, 0.0], "cold": [0.0, float("-inf")]}, "'cold'.*finite"),
            ({"hot": [1.0, 0.0], "cold": [1.0, 0.0, 0.0]}, "'cold' has 3 components, expected 2"),
            ({"hot": [[1.0, 0.0]]}, "'hot'.*flat"),
            ({}, "table must be non-empty"),
        ],
    )
    def test_bad_in_memory_table_rejected_at_construction(self, table, message):
        with pytest.raises(ValueError, match=message):
            WordVectorBackend(table=table)

    @pytest.mark.parametrize(
        "vector",
        [[], [True, False], ["1.5", "2"], [1.0, None], [[1.0], [1.0, 2.0]]],
        ids=["empty", "boolean", "string", "null", "ragged"],
    )
    def test_non_number_or_empty_vectors_rejected_at_construction(self, vector):
        with pytest.raises(ValueError, match="'hot' must be a non-empty flat array of numbers"):
            WordVectorBackend(table={"hot": vector, "cold": vector})

    def test_int_components_are_numbers(self):
        backend = WordVectorBackend(table={"hot": [1, 0], "cold": [1, 1]})
        assert backend.similarity("hot", "cold") == pytest.approx(2 ** -0.5)


class TestLoadWordVectors:
    def test_with_header(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 3\nhot 1 0 0\ncold 0 1 0\n", encoding="utf-8")
        table = load_word_vectors(path)
        assert set(table) == {"hot", "cold"}
        assert all(len(v) == 3 for v in table.values())

    def test_without_header(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("hot 1 0 0\n", encoding="utf-8")
        assert set(load_word_vectors(path)) == {"hot"}

    @pytest.mark.parametrize("content", ["2 3\nhot 1 0 0\ncold 0 1 0\n", "hot 1 0 0\ncold 0 1 0\n"])
    def test_byte_order_mark_is_skipped(self, tmp_path, content):
        (tmp_path / "bom.txt").write_text(content, encoding="utf-8-sig")
        (tmp_path / "plain.txt").write_text(content, encoding="utf-8")
        with_bom, plain = load_word_vectors(tmp_path / "bom.txt"), load_word_vectors(tmp_path / "plain.txt")
        assert with_bom.index == plain.index == {"hot": 0, "cold": 1}
        assert with_bom.matrix.tobytes() == plain.matrix.tobytes()

    @pytest.mark.parametrize("content", ["hot 1 0 0\ncold 0 1\n", "hot 1 0\ncold 0 1 7\n"])
    def test_inconsistent_dimension_names_line(self, tmp_path, content):
        path = tmp_path / "vec.txt"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(WordVectorFormatError, match="line 2"):
            load_word_vectors(path)

    @pytest.mark.parametrize("content", ["", "3 2\n", "\n \n", "3 2\n\n\t\n"])
    def test_file_without_vectors_rejected(self, tmp_path, content):
        path = tmp_path / "vec.txt"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(WordVectorFormatError, match="no word vectors"):
            load_word_vectors(path)

    def test_python_float_syntax_is_kept(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("hot 1_0 \uff12\ncold -0 .5\n", encoding="utf-8")
        table = load_word_vectors(path)
        assert [list(table["hot"]), list(table["cold"])] == [[10.0, 2.0], [-0.0, 0.5]]

    def test_table_is_read_only(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("hot 1 0\ncold 0 1\n", encoding="utf-8")
        table = load_word_vectors(path)
        assert isinstance(table, Mapping) and not isinstance(table, dict)
        with pytest.raises(ValueError, match="read-only"):
            table["hot"][0] = 5.0

    def test_word_without_components_names_line(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("hot 1.0 0.0\ncold\n", encoding="utf-8")
        with pytest.raises(WordVectorFormatError, match="line 2: expected a word followed by floats"):
            load_word_vectors(path)

    def test_non_numeric_component_names_line(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("hot 1 0 zero\n", encoding="utf-8")
        with pytest.raises(WordVectorFormatError, match="line 1"):
            load_word_vectors(path)

    @pytest.mark.parametrize("component", ["nan", "inf", "-inf"])
    def test_non_finite_component_names_line(self, tmp_path, component):
        path = tmp_path / "vec.txt"
        path.write_text(f"hot 1 0 0\ncold 0 {component} 0\n", encoding="utf-8")
        with pytest.raises(WordVectorFormatError) as caught:
            load_word_vectors(path)
        assert str(caught.value) == "line 2: vector of 'cold' must have finite components (no NaN or inf)"

    @pytest.mark.parametrize(
        "components, reason",
        [
            ("0 nan 0", "vector of 'cold' must have finite components (no NaN or inf)"),
            ("0 1", "mixed dimensions: vector of 'cold' has 2 components, expected 3"),
        ],
        ids=["non-finite", "dimension"],
    )
    def test_a_line_breaks_the_row_rule_in_the_words_of_a_mapping(self, tmp_path, components, reason):
        cold = [float(component) for component in components.split()]
        with pytest.raises(ValueError) as from_mapping:
            WordVectorBackend(table={"hot": [1.0, 0.0, 0.0], "cold": cold})
        path = tmp_path / "vec.txt"
        path.write_text(f"hot 1 0 0\ncold {components}\n", encoding="utf-8")
        with pytest.raises(WordVectorFormatError) as from_file:
            load_word_vectors(path)
        assert str(from_mapping.value) == reason
        assert str(from_file.value) == f"line 2: {reason}"

    @pytest.mark.parametrize(
        "content, reason",
        [
            (b"hot 1 0\nwat\xff 0.3 0.4\n", "line 2: not UTF-8 (byte 0xff)"),
            (b"hot 1 0\ncold 0 \x801\n", "line 2: not UTF-8 (byte 0x80)"),
            (b"\xef\xbb\xbf2 2\r\nhot 1 0\r\n\ncaf\xe9 1 1\n", "line 4: not UTF-8 (byte 0xe9)"),
            (b"hot 1 x\ncaf\xe9 1 1\n", "line 1: non-numeric"),
        ],
        ids=["word", "component", "BOM and CRLF", "an earlier bad line first"],
    )
    def test_byte_that_is_not_utf8_names_line(self, tmp_path, content, reason):
        path = tmp_path / "vec.txt"
        path.write_bytes(content)
        with pytest.raises(WordVectorFormatError) as caught:
            load_word_vectors(path)
        assert str(caught.value).startswith(reason)

    def test_duplicate_word_keeps_first_with_warning(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("hot 1 0\nhot 0 1\n", encoding="utf-8")
        with pytest.warns(UserWarning, match="duplicate word"):
            table = load_word_vectors(path)
        assert list(table["hot"]) == [1.0, 0.0]


class TestLoadFixtureSimilarities:
    def test_lookup_in_either_order(self, tmp_path):
        path = tmp_path / "fix.tsv"
        path.write_text(
            "Contained to leak body\tstatic to movable liquid\t0.314\n", encoding="utf-8"
        )
        backend = FixtureBackend.from_file(path)
        assert backend.similarity("Contained to leak body", "static to movable liquid") == 0.314
        assert backend.similarity("static to movable liquid", "Contained to leak body") == 0.314

    def test_byte_order_mark_is_skipped(self, tmp_path):
        content = "spill\tleak\t0.25\nHot Water\tCold water\t0.5\n"
        (tmp_path / "bom.tsv").write_text(content, encoding="utf-8-sig")
        (tmp_path / "plain.tsv").write_text(content, encoding="utf-8")
        table = load_fixture_similarities(tmp_path / "bom.tsv")
        assert table == load_fixture_similarities(tmp_path / "plain.tsv")
        assert FixtureBackend(table=table).similarity("spill", "leak") == 0.25

    def test_matching_trims_and_casefolds(self, tmp_path):
        path = tmp_path / "fix.tsv"
        path.write_text("Hot Water\tCold water\t0.5\n", encoding="utf-8")
        backend = FixtureBackend.from_file(path)
        assert backend.similarity("  hot water ", "COLD WATER") == 0.5

    def test_absent_pair_is_an_explicit_error(self, tmp_path):
        path = tmp_path / "fix.tsv"
        path.write_text("a\tb\t0.5\n", encoding="utf-8")
        backend = FixtureBackend.from_file(path)
        with pytest.raises(MissingFixtureError, match="'a'.*'c'"):
            backend.similarity("a", "c")

    def test_out_of_range_similarity_rejected(self, tmp_path):
        path = tmp_path / "fix.tsv"
        path.write_text("a\tb\t1.2\n", encoding="utf-8")
        with pytest.raises(FixtureFormatError, match="outside"):
            load_fixture_similarities(path)

    def test_conflicting_duplicate_rejected(self, tmp_path):
        path = tmp_path / "fix.tsv"
        path.write_text("a\tb\t0.5\nb\ta\t0.6\n", encoding="utf-8")
        with pytest.raises(FixtureFormatError, match="conflicting"):
            load_fixture_similarities(path)

    def test_agreeing_duplicate_allowed(self, tmp_path):
        path = tmp_path / "fix.tsv"
        path.write_text("a\tb\t0.5\nb\ta\t0.5\n", encoding="utf-8")
        assert len(load_fixture_similarities(path)) == 1

    @pytest.mark.parametrize(
        "content, line_no",
        [("a\tb\t0.5\na\tc\thigh\n", 2), ("\na\tb\t0.5\n \t \na\tc\thigh\n", 4)],
        ids=["plain", "blank-lines-skipped-and-counted"],
    )
    def test_non_decimal_similarity_names_line(self, tmp_path, content, line_no):
        path = tmp_path / "fix.tsv"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(
            FixtureFormatError, match=f"line {line_no}: similarity 'high' is not a decimal"
        ):
            load_fixture_similarities(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "fix.tsv"
        path.write_text("a\tb\t0.5\na\tb\n", encoding="utf-8")
        with pytest.raises(FixtureFormatError, match="line 2"):
            load_fixture_similarities(path)

    @pytest.mark.parametrize(
        "content",
        [b"a\tb\t0.5\na\xff\tb\t0.3\n", b"a\tb\t0.5\na\tb\t0.\xff\n"],
        ids=["text", "similarity"],
    )
    def test_byte_that_is_not_utf8_names_line(self, tmp_path, content):
        path = tmp_path / "fix.tsv"
        path.write_bytes(content)
        with pytest.raises(FixtureFormatError, match=r"^line 2: not UTF-8 \(byte 0xff\)$"):
            load_fixture_similarities(path)


class TestTextSimilarity:
    def test_identity_is_exactly_one(self):
        backend = LexicalBackend()
        assert text_similarity("spilling of liquid", "spilling of liquid", backend) == 1.0

    def test_identity_up_to_tokenization(self):
        backend = LexicalBackend()
        assert text_similarity("Spilling-of-LIQUID", "spilling of liquid!", backend) == 1.0

    def test_disjoint_tokens_give_zero(self):
        backend = LexicalBackend()
        assert text_similarity("alpha beta", "gamma delta", backend) == 0.0

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            text_similarity("", "liquid", LexicalBackend())
        with pytest.raises(ValueError, match="non-empty"):
            text_similarity("liquid", "   ", LexicalBackend())

    def test_lexical_partial_overlap_hand_value(self):
        # 4-token texts sharing one token: dot 1, norms 2 and 2 -> 0.25
        value = text_similarity(
            "contained to leak body", "static to movable liquid", LexicalBackend()
        )
        assert value == 0.25

    def test_lexical_backend_takes_no_settings(self):
        assert repr(LexicalBackend()) == "LexicalBackend()"
        assert LexicalBackend() == LexicalBackend()
        with pytest.raises(TypeError):
            LexicalBackend(stopwords=frozenset({"of", "the"}))

    def test_tokenless_texts_score_zero_with_warning(self):
        with pytest.warns(OovWarning) as caught:
            assert text_similarity("-- !!", "?!", LexicalBackend()) == 0.0
        assert [str(w.message) for w in caught] == [
            "'-- !!' scores 0.0 against every text: it has no token",
            "'?!' scores 0.0 against every text: it has no token",
        ]

    def test_wordvector_identity_is_exactly_one(self):
        backend = WordVectorBackend(
            table={"hot": np.array([0.3, 0.7]), "water": np.array([0.9, 0.1])}
        )
        assert text_similarity("hot water", "hot water", backend) == 1.0

    def test_wordvector_all_oov_pair_scores_zero(self):
        backend = WordVectorBackend(table={"hot": np.array([1.0, 0.0])})
        with pytest.warns(OovWarning):
            assert text_similarity("xyzzy", "plugh", backend) == 0.0

    def test_wordvector_negative_cosine_clamped_to_zero(self):
        backend = WordVectorBackend(
            table={"up": np.array([1.0, 0.0]), "down": np.array([-1.0, 0.0])}
        )
        assert text_similarity("up", "down", backend) == 0.0

    def test_fixture_replays_pinned_value(self, tmp_path):
        path = tmp_path / "fix.tsv"
        path.write_text(
            "Contained to leak body\tstatic to movable liquid\t0.314\n", encoding="utf-8"
        )
        backend = FixtureBackend.from_file(path)
        value = text_similarity("Contained to leak body", "static to movable liquid", backend)
        assert value == 0.314


def _random_texts(rng, words, count):
    return [
        " ".join(rng.choice(words) for _ in range(rng.randint(1, 6))) for _ in range(count)
    ]


def _dense_lexical_reference(a, b):
    """Cosine of dense count vectors over the pair's sorted vocabulary."""
    tokens_a, tokens_b = tokenize(a), tokenize(b)
    if tokens_a == tokens_b:
        return 1.0 if tokens_a else 0.0
    vocabulary = {token: i for i, token in enumerate(sorted(set(tokens_a) | set(tokens_b)))}
    u, v = np.zeros(len(vocabulary)), np.zeros(len(vocabulary))
    for tokens, vector in ((tokens_a, u), (tokens_b, v)):
        for token in tokens:
            vector[vocabulary[token]] += 1.0
    norm_u, norm_v = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    return min(1.0, max(0.0, float(np.dot(u, v)) / (norm_u * norm_v)))


class TestLexicalAgainstDenseReference:
    WORDS = ["kettle", "water", "water", "steam", "lid", "of", "the", "to", "café", "überdruck"]

    def _text(self, rng):
        if rng.random() < 0.05:
            return rng.choice(["--- !!", "of the", "to of to"])
        return "-".join(rng.choice(self.WORDS) for _ in range(rng.randint(1, 12)))

    def test_bit_identical_to_dense_count_vectors(self):
        rng = random.Random(23)
        backend = LexicalBackend()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OovWarning)
            for _ in range(10_000):
                a, b = self._text(rng), self._text(rng)
                assert backend.similarity(a, b) == _dense_lexical_reference(a, b), (a, b)


class TestBulkMatchesScalar:
    """A word-vector table read from a file scores in bulk as the same table given as a
    dict. Bulk against scalar, for every backend, is ``test_backend_contract.py``'s."""

    WORDS = ["kettle", "water", "steam", "lid", "heat", "coil", "spout", "boil"]
    OOV = ["xyzzy", "plugh", "frobozz"]

    def _pairs(self, rng, texts):
        pairs = [(rng.choice(texts), rng.choice(texts)) for _ in range(150)]
        pairs += [(text, text) for text in texts[:10]]  # identical texts
        pairs += [(a, " ".join(reversed(a.split()))) for a, _ in pairs[:20]]  # reordered tokens
        pairs += pairs[:30]  # duplicate pairs
        rng.shuffle(pairs)
        return pairs

    def _texts(self, rng):
        texts = _random_texts(rng, self.WORDS + self.OOV, 40)
        return texts + ["xyzzy", "plugh frobozz", "frobozz plugh", "Kettle-LID", "kettle lid"]

    def test_wordvector_file_table_equals_dict_table(self, tmp_path):
        rng = random.Random(47)
        lines = [
            " ".join([word] + [rng.choice([repr, "{:.4f}".format, "{:e}".format])(rng.uniform(-1, 1))
                               for _ in range(8)])
            for word in self.WORDS
        ]
        path = tmp_path / "vectors.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        table = {
            parts[0]: np.array([float(x) for x in parts[1:]]) for parts in map(str.split, lines)
        }
        from_file, from_dict = WordVectorBackend.from_file(path), WordVectorBackend(table=table)
        pairs = self._pairs(rng, self._texts(rng))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OovWarning)
            assert from_file.similarities(pairs) == from_dict.similarities(pairs)
            for text in self._texts(rng):
                pooled = embed_wordvector(text, from_file.table)
                assert pooled.tobytes() == embed_wordvector(text, table).tobytes()


class TestContract:
    """A backend defines ``similarities`` or ``similarity`` and inherits the other."""

    def test_neither_method_is_not_implemented(self):
        class Neither(SimilarityBackend):
            pass

        with pytest.raises(NotImplementedError):
            Neither().similarity("kettle", "lid")
        with pytest.raises(NotImplementedError):
            Neither().similarities([("kettle", "lid")])

    def test_similarity_is_the_one_pair_case_of_similarities(self):
        class BulkOnly(SimilarityBackend):
            def __init__(self):
                self.calls = []

            def similarities(self, pairs):
                self.calls.append(list(pairs))
                return [0.25 * len(a) / len(b) for a, b in pairs]

        backend = BulkOnly()
        assert backend.similarity("spout", "lid") == 0.25 * 5 / 3
        assert backend.calls == [[("spout", "lid")]]
        assert text_similarity("lid", "spout", backend) == 0.25 * 3 / 5


class TestOovWarningsPerUniqueText:
    """A text with nothing to score on warns once per ``similarities`` call, not per pair."""

    def _warned(self, backend, pairs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            backend.similarities(pairs)
        return sorted(str(w.message) for w in caught if issubclass(w.category, OovWarning))

    def test_wordvector_warns_once_per_oov_text(self):
        backend = WordVectorBackend(table={"hot": np.array([1.0, 0.0])})
        pairs = [("xyzzy", "hot"), ("hot", "xyzzy"), ("xyzzy", "plugh"), ("plugh", "plugh")] * 3
        assert self._warned(backend, pairs) == [
            "'plugh' scores 0.0 against every text: none of its tokens has a word vector",
            "'xyzzy' scores 0.0 against every text: none of its tokens has a word vector",
        ]
        # Nothing is cached between calls: the next call warns again.
        assert len(self._warned(backend, pairs[:1])) == 1

    def test_wordvector_names_each_text_not_its_tokens(self):
        # "Plugh" and "plugh!" share their token, and so their row, but each
        # is a text of its own, and its warning names it.
        backend = WordVectorBackend(table={"hot": np.array([1.0, 0.0])})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            values = backend.similarities([("Plugh", "hot"), ("plugh!", "hot"), ("Plugh", "plugh!")])
        assert values == [0.0] * 3
        assert [(w.category, str(w.message)) for w in caught] == [
            (OovWarning, f"{text!r} scores 0.0 against every text: none of its tokens has a word vector")
            for text in ("Plugh", "plugh!")
        ]

    def test_lexical_warns_once_per_tokenless_text(self):
        backend = LexicalBackend()
        pairs = [("-- !!", "kettle"), ("-- !!", "?!"), ("kettle", "-- !!")] * 3
        assert self._warned(backend, pairs) == [
            "'-- !!' scores 0.0 against every text: it has no token",
            "'?!' scores 0.0 against every text: it has no token",
        ]
