"""The similarity contract every backend keeps, and the one boundary that checks it.

A backend scores a pair of texts symmetrically and within [0, 1], and equal
texts score 1.0 when they have something to score on. Its ``similarities``
and ``similarity`` agree bit for bit, with the same warnings. One set of
cases runs through each built-in backend and through a custom backend that
defines only ``similarity``. Under the lexical, word-vector and remote
backends a text with nothing to score on scores 0.0 against every text,
itself included, and warns once per call, naming the text.

A NaN or ±inf component in a vector a backend is given raises, whatever its
source; each source's tests state it: a ``WordVectorBackend`` table in
``tests/test_similarity.py::TestWordVectorBackendTable``, a vector-file line
in ``tests/test_similarity.py::TestLoadWordVectors`` and a remote response in
``tests/test_remote_backend.py`` (``test_non_finite_component_rejected_and_retried``
and ``test_infinite_component_rejected``).

``text_similarities`` is the one place the package checks a backend's
output. It returns float values unchanged, or raises ``ValueError`` naming the
backend: a value outside [0, 1] or NaN never becomes a clamped score, and a
missing value never becomes an ``IndexError`` or ``KeyError`` further on. It
also owns the values' type: another real number (a numpy scalar, an ``int``,
an array's items) is handed on as the equal ``float``, so it ranks and renders
as that float does, and a ``bool`` or a value that is not a real number raises
there instead of inside novelty or a renderer.
"""

import ast
import math
import random
import warnings
from pathlib import Path

import numpy as np
import pytest

import sapphire_novelty
from sapphire_novelty import (
    ConstructLevel,
    FixtureBackend,
    LexicalBackend,
    OovWarning,
    ProblemCorpus,
    ProblemSapphire,
    Provenance,
    RemoteBackend,
    SimilarityBackend,
    WordVectorBackend,
    assess_pair,
    make_constructs,
    rank_current_problems,
    render_report,
    text_similarity,
    tokenize,
)
from sapphire_novelty import vectors
from sapphire_novelty.data import load_case_study
from sapphire_novelty.similarity import text_similarities

from conftest import canned_vector

WORDS = ["kettle", "water", "steam", "lid", "heat", "coil", "spout", "boil", "spill"]
OOV = ["xyzzy", "plugh", "frobozz"]
FUNCTION_WORDS = ["of", "the"]


def _cases():
    """Texts with something to score, every text of the suite, and pairs for the bulk check."""
    rng = random.Random(53)

    def phrases(words, count):
        return [" ".join(rng.choice(words) for _ in range(rng.randint(1, 6))) for _ in range(count)]

    # In-vocabulary words only, so every backend has something to score.
    scorable = phrases(WORDS, 100) + ["Kettle-LID", "kettle lid"]
    # Out-of-vocabulary and function words among the words, or alone, and a text with no token.
    others = phrases(WORDS + OOV + FUNCTION_WORDS, 40) + [
        "xyzzy", "plugh frobozz", "frobozz plugh", "of the", "-- !!",
    ]
    reordered = [(text, " ".join(reversed(text.split()))) for text in scorable[:20] + others[:20]]
    texts = list(dict.fromkeys(scorable + others + [text for _, text in reordered]))
    pairs = [(rng.choice(texts), rng.choice(texts)) for _ in range(150)]
    pairs += [(text, text) for text in texts[:10]]  # identical texts
    pairs += reordered  # reordered tokens
    pairs += [(b.upper(), f"  {a}") for a, b in pairs[:20]]  # case and surrounding space
    pairs += pairs[:30]  # duplicate pairs
    rng.shuffle(pairs)
    return scorable, texts, pairs


SCORABLE, TEXTS, PAIRS = _cases()


class JaccardBackend(SimilarityBackend):
    """A custom backend that defines only ``similarity``: the overlap of the two token sets."""

    kind = "jaccard"

    def similarity(self, a, b):
        left, right = set(tokenize(a)), set(tokenize(b))
        return len(left & right) / len(left | right) if left | right else 0.0


def _fixture_backend():
    """A table that pins every pair of the suite's texts, self-pairs included."""
    keys = [tuple(sorted((a.casefold(), b.casefold()))) for i, a in enumerate(TEXTS) for b in TEXTS[i:]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OovWarning)
        values = LexicalBackend().similarities(keys)
    return FixtureBackend(table={key: round(value, 6) for key, value in zip(keys, values)})


def _wordvec_backend():
    rng = random.Random(59)
    return WordVectorBackend(table={word: np.array([rng.uniform(-1, 1) for _ in range(8)]) for word in WORDS})


BACKENDS = {
    "lexical": LexicalBackend,
    "wordvec": _wordvec_backend,
    "remote": None,  # needs the stub service; built in the fixture
    "fixture": _fixture_backend,
    "scalar-only": JaccardBackend,
}


@pytest.fixture(params=list(BACKENDS))
def backend(request):
    if request.param == "remote":
        return RemoteBackend(endpoint=request.getfixturevalue("embed_stub").url, batch_size=16)
    return BACKENDS[request.param]()


def _recorded(score):
    """The values ``score()`` returns, as bits, and the distinct warnings it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        values = [value.hex() for value in score()]
    return values, {(w.category, str(w.message)) for w in caught}


class TestContract:
    def test_symmetry_and_range(self, backend):
        grid = [(a, b) for a in TEXTS for b in TEXTS]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OovWarning)
            scores = dict(zip(grid, backend.similarities(grid)))
        for (a, b), value in scores.items():
            assert value == scores[b, a], (a, b)
            assert 0.0 <= value <= 1.0, (a, b)

    def test_identity(self, backend):
        for text in SCORABLE:
            assert text_similarity(text, text, backend) == 1.0, text

    def test_bulk_equals_scalar_with_the_same_warnings(self, backend):
        bulk = _recorded(lambda: backend.similarities(PAIRS))
        scalar = _recorded(lambda: [backend.similarity(a, b) for a, b in PAIRS])
        assert bulk == scalar
        assert _recorded(lambda: backend.similarities(PAIRS)) == bulk  # deterministic

    def test_values_pass_the_boundary_unchanged(self, backend):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OovWarning)
            checked, raw = text_similarities(PAIRS, backend), backend.similarities(PAIRS)
        assert [value.hex() for value in checked] == [value.hex() for value in raw]


def test_the_lexical_cases_meet_a_tokenless_text():
    _, messages = _recorded(lambda: LexicalBackend().similarities(PAIRS))
    assert (OovWarning, "'-- !!' scores 0.0 against every text: it has no token") in messages


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("lexical", "--", "'--' scores 0.0 against every text: it has no token"),
        ("wordvec", "xyzzy", "'xyzzy' scores 0.0 against every text: none of its tokens has a word vector"),
        ("remote", "frobozz", "'frobozz' scores 0.0 against every text: its response vector is all zero"),
    ],
    ids=["lexical", "wordvec", "remote"],
)
def test_a_text_with_nothing_to_score_warns_once_per_call(request, name, text, message):
    others = SCORABLE[:5]
    if name == "remote":  # the stub's table answers the text with a zero vector
        embed_stub = request.getfixturevalue("embed_stub")
        embed_stub.mode = "table"
        embed_stub.table = {other: canned_vector(other) for other in others} | {text: [0.0, 0.0, 0.0]}
        backend = RemoteBackend(endpoint=embed_stub.url)
    else:
        backend = BACKENDS[name]()
    pairs = [(text, other) for other in others] + [(other, text) for other in others] + [(text, text)] * 2
    for _ in range(2):  # nothing is cached, so each call warns
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            values = backend.similarities(pairs)
        assert values == [0.0] * len(pairs)
        assert [(w.category, str(w.message)) for w in caught] == [(OovWarning, message)]


class PinnedBackend(SimilarityBackend):
    """A custom backend that scores equal texts 1.0 and any other pair ``value``."""

    kind = "pinned"

    def __init__(self, value):
        self.value = value

    def similarity(self, a, b):
        return 1.0 if a == b else self.value


class ShortBackend(SimilarityBackend):
    """A custom backend whose ``similarities`` drops the last value."""

    kind = "short"

    def similarities(self, pairs):
        return [0.5] * (len(pairs) - 1)


class ListedBackend(SimilarityBackend):
    """A custom backend that returns ``values`` itself, whatever the pairs."""

    kind = "listed"

    def __init__(self, values):
        self.values = values

    def similarities(self, pairs):
        return self.values


class CountedPairs(list):
    """A list of pairs that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class ConvertedBackend(SimilarityBackend):
    """A custom backend that returns ``convert`` of what ``inner`` scores."""

    kind = "converted"

    def __init__(self, inner, convert):
        self.inner, self.convert = inner, convert

    def similarities(self, pairs):
        return self.convert(self.inner.similarities(pairs))


THREE_PAIRS = [("spill", "boil"), ("boil", "lid"), ("lid", "spout")]


def problem(problem_id, provenance, **constructs):
    constructs.setdefault("action", "spilling of liquid")
    return ProblemSapphire(
        id=problem_id, label=problem_id, provenance=provenance, constructs=make_constructs(**constructs)
    )


class TestBoundary:
    def test_fixture_nan_raises_naming_pair_and_kind(self):
        backend = FixtureBackend(table={("boil", "spill"): math.nan})
        with pytest.raises(ValueError, match=r"^'fixture' backend scored \('spill', 'boil'\) as nan"):
            text_similarity("spill", "boil", backend)

    @pytest.mark.parametrize("value", [7.0, -0.1, math.inf, -math.inf, math.nan])
    def test_out_of_range_raises_naming_pair_and_kind(self, value):
        with pytest.raises(ValueError) as raised:
            text_similarity("spill", "boil", PinnedBackend(value))
        assert str(raised.value) == f"'pinned' backend scored ('spill', 'boil') as {value!r}, outside [0, 1]"

    def test_the_first_bad_pair_is_named(self):
        pairs = [("spill", "spill"), ("spill", "boil"), ("boil", "lid")]
        with pytest.raises(ValueError, match=r"scored \('spill', 'boil'\) as 7\.0"):
            text_similarities(pairs, PinnedBackend(7.0))

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, math.nextafter(1.0, 2.0), -5e-324])
    def test_a_bad_value_anywhere_is_named(self, bad, position):
        values = [0.5, 1.0, 0.0]
        values[position] = bad
        with pytest.raises(ValueError) as raised:
            text_similarities(THREE_PAIRS, ListedBackend(values))
        assert str(raised.value) == (
            f"'listed' backend scored {THREE_PAIRS[position]!r} as {bad!r}, outside [0, 1]"
        )

    def test_minus_zero_passes_with_its_sign(self):
        values = text_similarities(THREE_PAIRS, ListedBackend([0.5, -0.0, 1.0]))
        assert [value.hex() for value in values] == [(0.5).hex(), (-0.0).hex(), (1.0).hex()]

    def test_no_pairs_give_no_values(self):
        assert text_similarities([], ListedBackend([])) == []

    def test_a_blank_text_is_named_with_its_pair_before_the_backend_is_called(self):
        pairs = [("spill", "boil"), ("boil", " \t"), ("", "lid")]
        with pytest.raises(ValueError, match=r"non-empty texts, got \('boil', ' \\t'\)$"):
            text_similarities(pairs, ShortBackend())

    def test_a_text_that_is_not_a_string_raises_attribute_error(self):
        with pytest.raises(AttributeError):
            text_similarities([("spill", "boil"), ("boil", None)], ShortBackend())

    @pytest.mark.parametrize("pair", [("spill", "boil", "lid"), ("spill",)])
    def test_a_pair_that_does_not_hold_two_texts_raises(self, pair):
        with pytest.raises(ValueError, match="values to unpack"):
            text_similarities([("spill", "boil"), pair], ShortBackend())

    def test_a_missing_value_raises_naming_kind(self):
        with pytest.raises(ValueError, match=r"^'short' backend returned 0 similarities for 1 pairs$"):
            text_similarity("spill", "boil", ShortBackend())
        with pytest.raises(ValueError, match=r"^'short' backend returned 2 similarities for 3 pairs$"):
            rank_current_problems(
                ProblemCorpus("past", Provenance.PAST, (problem("P1", Provenance.PAST, action="boil"),)),
                ProblemCorpus(
                    "current",
                    Provenance.CURRENT,
                    tuple(problem(f"C{i}", Provenance.CURRENT, action=f"spill {i}") for i in range(3)),
                ),
                ShortBackend(),
            )

    def test_a_custom_backend_with_no_kind_is_named_after_its_class(self):
        class Two(SimilarityBackend):
            def similarity(self, a, b):
                return 2.0

        with pytest.raises(ValueError, match=r"^'Two' backend scored \('a', 'b'\) as 2\.0, outside \[0, 1\]$"):
            text_similarity("a", "b", Two())

        class Half(SimilarityBackend):
            def similarity(self, a, b):
                return 1.0 if a == b else 0.5

        past = ProblemCorpus("past", Provenance.PAST, (problem("P1", Provenance.PAST),))
        current = ProblemCorpus("current", Provenance.CURRENT, (problem("C1", Provenance.CURRENT),))
        assert rank_current_problems(past, current, Half()).backend_kind == "Half"

    def test_a_set_kind_is_kept(self):
        class Lexical(LexicalBackend):
            pass

        class Delegating(SimilarityBackend):
            def __init__(self, inner):
                self.kind = inner.kind

        assert JaccardBackend.kind == "jaccard"
        assert Lexical().kind == Delegating(Lexical()).kind == "lexical"

    def test_assess_pair_with_nan_levels_raises(self):
        past = problem("P1", Provenance.PAST, effect="hot water", organ="lid")
        current = problem("C1", Provenance.CURRENT, effect="scald", organ="spout")
        with pytest.raises(ValueError, match="'pinned' backend scored"):
            assess_pair(past, current, PinnedBackend(math.nan))

    def test_remote_ranks_equal_actions_at_threshold_one(self, embed_stub):
        # The stub's vector of this Action has a cosine with itself just below 1.0 (0.9999999999999998).
        past = ProblemCorpus("past", Provenance.PAST, (problem("P1", Provenance.PAST, effect="hot water"),))
        current = ProblemCorpus(
            "current", Provenance.CURRENT, (problem("C1", Provenance.CURRENT, effect="scalded hand"),)
        )
        for backend in (LexicalBackend(), RemoteBackend(endpoint=embed_stub.url)):
            report = rank_current_problems(past, current, backend, threshold=1.0)
            assert [entry.current_id for entry in report.ranked] == ["C1"], backend.kind
            assert report.ranked[0].assessments[0].construct_similarity[ConstructLevel.ACTION] == 1.0


# Each case: a backend's values in another real type, and the equal Python floats.
REAL_TYPES = {
    "numpy-float64": (lambda values: [np.float64(value) for value in values], list),
    "numpy-float32": (
        lambda values: [np.float32(value) for value in values],
        lambda values: [float(np.float32(value)) for value in values],
    ),
    "int": (
        lambda values: [int(value >= 0.5) for value in values],
        lambda values: [float(value >= 0.5) for value in values],
    ),
    "ndarray": (np.array, list),
}


class TestValueType:
    """Every value leaves ``text_similarities`` as a Python ``float``, or raises there."""

    @pytest.mark.parametrize("name", sorted(REAL_TYPES))
    def test_a_real_type_ranks_and_renders_as_the_equal_floats(self, name):
        past, current, fixture = load_case_study()
        typed, floats = REAL_TYPES[name]
        reports = [
            rank_current_problems(past, current, ConvertedBackend(fixture, convert))
            for convert in (typed, floats)
        ]
        for fmt in ("table", "csv", "json"):
            for summary_only in (False, True):
                typed_bytes, float_bytes = (render_report(report, fmt, summary_only) for report in reports)
                assert typed_bytes == float_bytes, (fmt, summary_only)

    @pytest.mark.parametrize("name", sorted(REAL_TYPES))
    def test_a_real_type_is_handed_on_as_floats(self, name):
        typed, floats = REAL_TYPES[name]
        values = text_similarities(THREE_PAIRS, ListedBackend(typed([0.25, 1.0, 0.0])))
        assert [type(value) for value in values] == [float] * 3
        assert values == floats([0.25, 1.0, 0.0])

    def test_a_numpy_minus_zero_keeps_its_sign(self):
        values = text_similarities(THREE_PAIRS, ListedBackend([np.float64(-0.0), 0.5, 1]))
        assert [value.hex() for value in values] == [(-0.0).hex(), (0.5).hex(), (1.0).hex()]

    def test_a_float_list_is_the_backends_own(self):
        values = [0.5, 1.0, 0.0]
        assert text_similarities(THREE_PAIRS, ListedBackend(values)) is values

    @pytest.mark.parametrize(
        "values",
        [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.25, 0.5, 0.75]],
        ids=["all-one", "all-zero", "inside"],
    )
    def test_in_range_floats_cost_no_walk_over_the_pairs(self, values):
        pairs = CountedPairs(THREE_PAIRS)
        assert text_similarities(pairs, ListedBackend(values)) is values
        # The C-level blank and length passes only: no per-pair walk.
        assert pairs.iterations == 2

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("bad", [True, False, np.True_, None, "0.5", 0.5j, [0.5]], ids=repr)
    def test_a_value_that_is_not_a_real_number_is_named(self, bad, position):
        values = [0.5, 1.0, 0.0]
        values[position] = bad
        with pytest.raises(ValueError) as raised:
            text_similarities(THREE_PAIRS, ListedBackend(values))
        assert str(raised.value) == (
            f"'listed' backend scored {THREE_PAIRS[position]!r} as {bad!r}, not a real number"
        )

    def test_the_type_is_checked_before_the_range(self):
        with pytest.raises(ValueError, match=r"scored \('lid', 'spout'\) as None, not a real number$"):
            text_similarities(THREE_PAIRS, ListedBackend([7.0, math.nan, None]))

    @pytest.mark.parametrize(
        "bad",
        [np.float64(7.0), np.float32(math.nan), 2, -1, 10**400],
        ids=["float64-7", "float32-nan", "int-2", "int-minus-1", "int-too-large-for-a-float"],
    )
    def test_a_real_type_out_of_range_is_named(self, bad):
        with pytest.raises(ValueError) as raised:
            text_similarities(THREE_PAIRS, ListedBackend([0.5, bad, 1]))
        assert str(raised.value) == f"'listed' backend scored ('boil', 'lid') as {bad!r}, outside [0, 1]"

    def test_a_bool_fails_ranking_naming_the_backend(self):
        past, current, fixture = load_case_study()
        backend = ConvertedBackend(fixture, lambda values: [value == 1.0 for value in values])
        with pytest.raises(ValueError, match=r"^'converted' backend scored \(.*\) as True, not a real number$"):
            rank_current_problems(past, current, backend)


def test_only_text_similarities_reaches_a_backend():
    """The package reaches a backend's scoring methods only in ``text_similarities`` and
    the contract's two inherited defaults, so no path goes around the boundary check."""

    class Scopes(ast.NodeVisitor):
        def __init__(self, module):
            self.scope, self.found = [module], set()

        def enter(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = enter

        def visit_Attribute(self, node):
            if node.attr in ("similarity", "similarities"):
                self.found.add(".".join(self.scope))
            self.generic_visit(node)

    found = set()
    for path in sorted(Path(sapphire_novelty.__file__).parent.rglob("*.py")):
        scopes = Scopes(path.stem)
        scopes.visit(ast.parse(path.read_text(encoding="utf-8")))
        found |= scopes.found
    assert found == {
        "similarity.SimilarityBackend.similarity",
        "similarity.SimilarityBackend.similarities",
        "similarity.text_similarities",
    }


def test_the_vector_backends_share_one_scoring_path():
    """Only ``vectors._VectorBackend.similarities`` refers to the vector kernel,
    and neither vector backend defines ``similarities`` in its class body: each
    defines the rows it scores, and inherits the one scoring path."""

    class Scopes(ast.NodeVisitor):
        def __init__(self, module):
            self.scope, self.kernel_users, self.class_names = [module], set(), {}

        def enter(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_ClassDef(self, node):
            names = set()
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(item.name)
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                    names |= {target.id for target in targets if isinstance(target, ast.Name)}
            self.class_names[node.name] = names
            self.enter(node)

        visit_FunctionDef = visit_AsyncFunctionDef = enter

        def visit_Name(self, node):
            if node.id == "_cosines":
                self.kernel_users.add(".".join(self.scope))

        def visit_Attribute(self, node):
            if node.attr == "_cosines":
                self.kernel_users.add(".".join(self.scope))
            self.generic_visit(node)

        def visit_alias(self, node):
            if node.name == "_cosines":
                self.kernel_users.add(".".join(self.scope) + " (import)")

    kernel_users, class_names = set(), {}
    for path in sorted(Path(sapphire_novelty.__file__).parent.rglob("*.py")):
        scopes = Scopes(path.stem)
        scopes.visit(ast.parse(path.read_text(encoding="utf-8")))
        kernel_users |= scopes.kernel_users
        class_names.update(scopes.class_names)
    assert kernel_users == {"vectors._VectorBackend.similarities"}
    assert "similarities" in class_names["_VectorBackend"]
    for backend in (WordVectorBackend, RemoteBackend):
        assert "similarities" not in class_names[backend.__name__]
        assert "_rows" in class_names[backend.__name__]
        assert backend.similarities is vectors._VectorBackend.similarities
