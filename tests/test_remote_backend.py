"""Wire-protocol checks for the remote embedding backend, against a stub server."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import urllib.request
import warnings
from pathlib import Path

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

import sapphire_novelty
from sapphire_novelty import (
    BackendUnavailableError,
    NoveltyBand,
    OovWarning,
    ProblemCorpus,
    ProblemSapphire,
    Provenance,
    RemoteBackend,
    make_constructs,
    rank_current_problems,
    text_similarity,
)
from sapphire_novelty.cli import main
from sapphire_novelty.data import (
    current_corpus_path,
    fixture_similarities_path,
    load_case_study,
    past_corpus_path,
)
from sapphire_novelty.remote import _check_endpoint, _parse_vectors

from conftest import canned_vector
from vector_reference import cosine_similarity


class TestEmbedTexts:
    def test_vectors_come_back_in_request_order(self, embed_stub):
        backend = RemoteBackend(endpoint=embed_stub.url)
        texts = ["spilling of liquid", "hot steam", "kettle base", "loose lid"]
        vectors = backend.embed_texts(texts)
        assert len(vectors) == len(texts)
        for text, vector in zip(texts, vectors):
            assert list(vector) == canned_vector(text)

    def test_batching_respects_configured_size(self, embed_stub):
        backend = RemoteBackend(endpoint=embed_stub.url, batch_size=3)
        texts = [f"text number {i}" for i in range(7)]
        vectors = backend.embed_texts(texts)
        assert [len(batch) for batch in embed_stub.batches] == [3, 3, 1]
        assert [list(v) for v in vectors] == [canned_vector(t) for t in texts]

    def test_single_request_for_small_input(self, embed_stub):
        backend = RemoteBackend(endpoint=embed_stub.url, batch_size=32)
        backend.embed_texts(["a b", "c d"])
        assert [len(batch) for batch in embed_stub.batches] == [2]


class TestSimilarity:
    def test_similarity_matches_local_cosine_of_canned_vectors(self, embed_stub):
        backend = RemoteBackend(endpoint=embed_stub.url)
        a, b = "spilling of liquid", "water escaping the kettle"
        expected = max(
            0.0, cosine_similarity(np.array(canned_vector(a)), np.array(canned_vector(b)))
        )
        assert text_similarity(a, b, backend) == expected

    def test_one_comparison_is_one_request_with_its_unique_texts(self, embed_stub):
        backend = RemoteBackend(endpoint=embed_stub.url)
        for a, b in [("a b", "c d"), ("spill", "spill")]:
            text_similarity(a, b, backend)
        assert embed_stub.batches == [["a b", "c d"], ["spill"]]

    def test_similarity_symmetric(self, embed_stub):
        backend = RemoteBackend(endpoint=embed_stub.url)
        assert text_similarity("a b c", "d e", backend) == text_similarity(
            "d e", "a b c", backend
        )


class TestRanking:
    def test_case_study_sends_one_request_per_stage(self, embed_stub):
        past, current, _ = load_case_study()
        rank_current_problems(past, current, RemoteBackend(endpoint=embed_stub.url))
        # One request for the single unique Action text, one for the 29 unique
        # level texts; scoring pair by pair sent 42 requests carrying 84 texts.
        assert [len(batch) for batch in embed_stub.batches] == [1, 29]
        assert all(len(set(batch)) == len(batch) for batch in embed_stub.batches)


class TestZeroVectors:
    """A text whose response vector is all zero matches nothing, and warns once per call."""

    @staticmethod
    def backend(embed_stub, texts, zero_text):
        embed_stub.mode = "table"
        embed_stub.table = {text: canned_vector(text) for text in texts}
        embed_stub.table[zero_text] = [0.0, 0.0, 0.0]
        return RemoteBackend(endpoint=embed_stub.url)

    @staticmethod
    def messages(score):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = score()
        return result, [(w.category, str(w.message)) for w in caught]

    def test_zero_vector_against_a_nonzero_one_warns(self, embed_stub):
        backend = self.backend(embed_stub, ["boil"], zero_text="spill")
        assert self.messages(lambda: text_similarity("spill", "boil", backend)) == (
            0.0,
            [(OovWarning, "'spill' scores 0.0 against every text: its response vector is all zero")],
        )

    def test_ranking_that_a_zero_vector_makes_most_novel_warns(self, embed_stub):
        def corpus(provenance, problem_id, state_change):
            constructs = make_constructs(action="spilling of liquid", state_change=state_change)
            problem = ProblemSapphire(
                id=problem_id, label=problem_id, provenance=provenance, constructs=constructs
            )
            return ProblemCorpus(provenance.value, provenance, (problem,))

        past = corpus(Provenance.PAST, "P1", "liquid at rest")
        current = corpus(Provenance.CURRENT, "C1", "liquid leaves the kettle")
        backend = self.backend(
            embed_stub, ["spilling of liquid", "liquid at rest"], zero_text="liquid leaves the kettle"
        )
        report, caught = self.messages(lambda: rank_current_problems(past, current, backend))
        (entry,) = report.ranked
        assert (entry.min_novelty, entry.band) == (1.0, NoveltyBand.HIGH)
        assert caught == [
            (
                OovWarning,
                "'liquid leaves the kettle' scores 0.0 against every text: its response vector is all zero",
            )
        ]


class TestRetries:
    def test_transient_failures_are_retried(self, embed_stub):
        # The first batch fails twice and succeeds; the second starts again
        # at its first attempt.
        embed_stub.fail_remaining = 2
        backend = RemoteBackend(endpoint=embed_stub.url, batch_size=1)
        vectors = backend.embed_texts(["a b", "c"])
        assert [list(v) for v in vectors] == [canned_vector("a b"), canned_vector("c")]
        assert embed_stub.batches == [["a b"]] * 3 + [["c"]]

    def test_exhausted_retries_raise_backend_unavailable(self, embed_stub):
        embed_stub.fail_remaining = 5
        backend = RemoteBackend(endpoint=embed_stub.url)
        with pytest.raises(BackendUnavailableError, match="after 3 attempt"):
            backend.embed_texts(["a b"])
        assert len(embed_stub.batches) == 3

    @pytest.mark.parametrize("status", [400, 404])
    def test_client_error_fails_at_once(self, embed_stub, status):
        embed_stub.fail_remaining, embed_stub.fail_status = 5, status
        backend = RemoteBackend(endpoint=embed_stub.url)
        with pytest.raises(BackendUnavailableError, match=f"after 1 attempt.*{status}"):
            backend.embed_texts(["a b"])
        assert len(embed_stub.batches) == 1

    @pytest.mark.parametrize("status", [408, 429, 500])
    def test_timeout_rate_limit_and_server_errors_are_retried(self, embed_stub, status):
        embed_stub.fail_remaining, embed_stub.fail_status = 5, status
        backend = RemoteBackend(endpoint=embed_stub.url)
        with pytest.raises(BackendUnavailableError, match=f"after 3 attempt.*{status}"):
            backend.embed_texts(["a b"])
        assert len(embed_stub.batches) == 3

    def test_client_error_exits_2_from_the_cli(self, embed_stub, capsys):
        embed_stub.fail_remaining, embed_stub.fail_status = 5, 400
        argv = [
            "rank",
            "--past", str(past_corpus_path()),
            "--current", str(current_corpus_path()),
            "--backend", "remote",
            "--endpoint", embed_stub.url,
        ]
        assert main(argv) == 2
        assert "after 1 attempt(s): HTTP Error 400" in capsys.readouterr().err
        assert len(embed_stub.batches) == 1


class TestErrorPaths:
    def test_wrong_vector_count_is_a_shape_error(self, embed_stub):
        embed_stub.mode = "bad_count"
        backend = RemoteBackend(endpoint=embed_stub.url)
        with pytest.raises(BackendUnavailableError, match="expected 2 vectors"):
            backend.embed_texts(["a", "b"])

    def test_missing_vectors_field_is_a_shape_error(self, embed_stub):
        embed_stub.mode = "missing_field"
        backend = RemoteBackend(endpoint=embed_stub.url)
        with pytest.raises(BackendUnavailableError, match="vectors"):
            backend.embed_texts(["a", "b"])

    def test_mixed_dimensions_rejected(self, embed_stub):
        embed_stub.mode = "mixed_dims"
        backend = RemoteBackend(endpoint=embed_stub.url)
        with pytest.raises(BackendUnavailableError, match="mixed dimensions"):
            backend.embed_texts(["a", "b"])

    def test_non_finite_component_rejected_and_retried(self, embed_stub):
        embed_stub.mode = "non_finite"
        backend = RemoteBackend(endpoint=embed_stub.url)
        with pytest.raises(BackendUnavailableError, match="finite"):
            backend.embed_texts(["a", "b"])
        assert len(embed_stub.batches) == 3

    @pytest.mark.parametrize("component", [float("inf"), float("-inf")], ids=["inf", "-inf"])
    def test_infinite_component_rejected(self, embed_stub, component):
        # json.dumps writes Infinity and -Infinity, which the client's JSON parser accepts.
        embed_stub.mode = "table"
        embed_stub.table = {"a": [1.0, 1.0], "b": [0.5, component]}
        backend = RemoteBackend(endpoint=embed_stub.url)
        with pytest.raises(BackendUnavailableError, match=r"response vector 1 must have finite components"):
            backend.embed_texts(["a", "b"])

    @pytest.mark.parametrize(
        "mode", ["string_components", "bool_components", "empty_vectors", "deep_nesting"]
    )
    def test_non_number_or_empty_vectors_rejected_and_retried(self, embed_stub, mode):
        embed_stub.mode = mode
        backend = RemoteBackend(endpoint=embed_stub.url)
        # A response nested past the recursion limit fails in the JSON parser.
        reason = "recursion depth" if mode == "deep_nesting" else "non-empty flat array of numbers"
        with pytest.raises(BackendUnavailableError, match=reason):
            backend.embed_texts(["a", "b"])
        assert len(embed_stub.batches) == 3

    @pytest.mark.parametrize("vector", [[1e200, 1.0], [1e-170, 1e-170]], ids=["overflow", "underflow"])
    def test_squared_norm_that_overflows_or_underflows_is_retried(self, embed_stub, vector):
        embed_stub.mode = "table"
        embed_stub.table = {"a b": [1.0, 0.0], "c d": vector}
        backend = RemoteBackend(endpoint=embed_stub.url)
        with pytest.raises(
            BackendUnavailableError,
            match="after 3 attempt.*response vector 1 is nonzero, but its squared norm overflows or underflows",
        ):
            text_similarity("a b", "c d", backend)
        assert embed_stub.batches == [["a b", "c d"]] * 3

    def test_squared_norm_that_underflows_exits_2_from_the_cli(self, embed_stub, tmp_path, capsys):
        embed_stub.mode = "table"
        embed_stub.table = {"boil": [1e-170, 1e-170]}
        paths = []
        for role in ("past", "current"):
            record = {"id": "P1", "provenance": role, "constructs": {"action": "boil"}}
            paths.append(tmp_path / f"{role}.jsonl")
            paths[-1].write_text(json.dumps(record) + "\n", encoding="utf-8")
        argv = ["assess", "--past", str(paths[0]), "--current", str(paths[1])]
        argv += ["--backend", "remote", "--endpoint", embed_stub.url]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "embedding backend failure" in err
        assert "squared norm overflows or underflows" in err
        assert embed_stub.batches == [["boil"]] * 3

    def test_dimension_change_across_batches_is_retried_then_unavailable(self, embed_stub):
        embed_stub.mode = "growing_dims"
        backend = RemoteBackend(endpoint=embed_stub.url, batch_size=1)
        with pytest.raises(
            BackendUnavailableError,
            match="after 3 attempt.*mixed dimensions: response vector 0 has 5 components, expected 2",
        ):
            backend.similarity("a", "b")
        assert embed_stub.batches == [["a"], ["b"], ["b"], ["b"]]

    def test_dimension_change_across_batches_exits_2_from_the_cli(
        self, embed_stub, tmp_path, capsys
    ):
        embed_stub.mode = "growing_dims"
        paths = {}
        for role in ("past", "current"):
            # 2 x 20 distinct Action texts: the gate call needs two batches of 32.
            records = [
                {"id": f"{role}{i}", "provenance": role, "constructs": {"action": f"{role} {i}"}}
                for i in range(20)
            ]
            paths[role] = tmp_path / f"{role}.jsonl"
            paths[role].write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")
        argv = [
            "rank",
            "--past", str(paths["past"]),
            "--current", str(paths["current"]),
            "--backend", "remote",
            "--endpoint", embed_stub.url,
            "--threshold", "0",
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "embedding backend failure" in err
        assert "mixed dimensions" in err
        assert [len(batch) for batch in embed_stub.batches] == [32, 8, 8, 8]

    def test_unreachable_endpoint(self):
        backend = RemoteBackend(endpoint="http://127.0.0.1:9/embed", timeout=1)
        with pytest.raises(BackendUnavailableError, match="after 3 attempt"):
            backend.embed_texts(["a"])


class TestConstruction:
    @pytest.mark.parametrize("batch_size", [0, -1, 2.5, 32.0, "32", True, None])
    def test_batch_size_not_an_integer_of_at_least_one_rejected(self, batch_size):
        message = f"batch_size {batch_size!r} is not an integer of at least 1"
        with pytest.raises(ValueError, match=re.escape(message)):
            RemoteBackend(endpoint="http://127.0.0.1:9/embed", batch_size=batch_size)

    @pytest.mark.parametrize("timeout", [0, -1, float("nan"), float("inf"), "5", True, None])
    def test_timeout_not_finite_and_above_zero_rejected(self, timeout):
        message = f"timeout must be a finite number of seconds above 0, got {timeout!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            RemoteBackend(endpoint="http://127.0.0.1:9/embed", timeout=timeout)

    def test_numpy_numbers_are_accepted(self):
        backend = RemoteBackend(
            endpoint="http://127.0.0.1:9/embed", batch_size=np.int64(2), timeout=np.float64(1.5)
        )
        assert (backend.batch_size, backend.timeout) == (2, 1.5)

    def test_the_settings_are_batch_size_and_timeout(self):
        fields = [field.name for field in dataclasses.fields(RemoteBackend)]
        assert fields == ["endpoint", "batch_size", "timeout"]
        with pytest.raises(TypeError, match="retries"):
            RemoteBackend(endpoint="http://127.0.0.1:9/embed", retries=2)


class TestEndpointScheme:
    @pytest.mark.parametrize("kind", ["file", "ftp", "scheme-less"])
    def test_non_http_endpoint_is_unavailable_without_reading(self, tmp_path, kind):
        # A valid response body: were the endpoint opened, the call would succeed.
        response = tmp_path / "response.json"
        response.write_text(json.dumps({"vectors": [[1.0, 0.0]]}), encoding="utf-8")
        endpoint = {
            "file": response.as_uri(),
            "ftp": "ftp://127.0.0.1:9/response.json",
            "scheme-less": "127.0.0.1:9/embed",
        }[kind]
        backend = RemoteBackend(endpoint=endpoint)
        with pytest.raises(BackendUnavailableError, match="scheme must be http or https"):
            backend.embed_texts(["a"])

    def test_non_http_endpoint_fails_before_the_first_attempt(self, monkeypatch):
        def urlopen(*args, **kwargs):
            raise AssertionError("a non-HTTP endpoint was opened")

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        backend = RemoteBackend(endpoint="ftp://127.0.0.1:9/embed")
        with pytest.raises(BackendUnavailableError) as raised:
            backend.embed_texts(["a"])
        assert str(raised.value) == "endpoint scheme must be http or https, got 'ftp'"


class TestMalformedEndpoint:
    """An endpoint that urllib cannot split, whose port is not a number in
    range, that has no host, or that holds whitespace, a control character or,
    outside the host, a character that is not ASCII is unavailable before any
    request is sent, and is not retried."""

    ENDPOINTS = {
        "unclosed-ipv6": ("http://[::1/embed", "Invalid IPv6 URL"),
        "non-numeric-port": ("http://127.0.0.1:abc/embed", "Port could not be cast to integer value as 'abc'"),
        "port-out-of-range": ("http://127.0.0.1:70000/embed", "Port out of range 0-65535"),
        "no-host": ("http:///embed", "no host given"),
        "port-but-no-host": ("http://:9/embed", "no host given"),
        "space": ("http://127.0.0.1:9/a b", "it holds ' '"),
        "tab": ("http://127.0.0.1:9/a\tb", "it holds '\\t'"),
        "delete": ("http://127.0.0.1:9/a\x7fb", "it holds '\\x7f'"),
        "newline-in-host": ("https://127.0.0.\n1:9/embed", "it holds '\\n'"),
        "non-ascii-path": ("http://127.0.0.1:9/émbed", "it holds 'é'"),
        "non-ascii-query": ("http://127.0.0.1:9/e?q=é", "it holds 'é'"),
    }

    @pytest.fixture(autouse=True)
    def no_request(self, monkeypatch):
        def urlopen(*args, **kwargs):
            raise AssertionError("a malformed endpoint was opened")

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)

    @pytest.mark.parametrize("kind", sorted(ENDPOINTS))
    def test_unavailable_before_any_request(self, kind):
        endpoint, reason = self.ENDPOINTS[kind]
        with pytest.raises(BackendUnavailableError) as raised:
            RemoteBackend(endpoint=endpoint).embed_texts(["a"])
        assert str(raised.value) == f"endpoint {endpoint!r} is not a valid URL: {reason}"

    def test_a_non_ascii_host_is_left_to_name_resolution(self):
        assert _check_endpoint("http://bücher.test:9/embed") is None

    @pytest.mark.parametrize("kind", sorted(ENDPOINTS))
    def test_exits_2_from_the_cli_with_one_line(self, kind, capsys):
        endpoint, reason = self.ENDPOINTS[kind]
        argv = [
            "rank",
            "--past", str(past_corpus_path()),
            "--current", str(current_corpus_path()),
            "--backend", "remote",
            "--endpoint", endpoint,
        ]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"embedding backend failure: endpoint {endpoint!r} is not a valid URL: {reason}\n"
        )


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=12,
)


@st.composite
def answers(draw):
    """A response value with the vector count and dimension the client expects:
    any JSON value, or a list of float vectors of one size that may meet both."""
    size = draw(st.integers(1, 3))
    # Finite components as often as any float, NaN and inf included.
    components = st.floats(-1e3, 1e3) | st.floats()
    vectors = st.lists(st.lists(components, min_size=size, max_size=size), min_size=1, max_size=4)
    raw = draw(json_values | vectors)
    counts = st.integers(0, 4)
    expected = draw(counts | st.just(len(raw)) if isinstance(raw, list) else counts)
    dimension = draw(st.none() | st.integers(1, 3) | st.just(size))
    return raw, expected, dimension


@hypothesis.settings(max_examples=500, deadline=None)
@hypothesis.given(answer=answers(), wrapped=st.booleans())
@hypothesis.example(answer=([[1.0, 2.0], [0.0, 0.0]], 2, None), wrapped=True)
@hypothesis.example(answer=([[2**64, -1]], 1, 2), wrapped=True)
def test_the_response_parser_returns_vectors_or_raises_value_error(answer, wrapped):
    """For any JSON value, bare or under "vectors", the response parser returns
    ``expected`` finite vectors of one dimension (``dimension`` if given) or
    raises ``ValueError``, the one parsing error the client retries besides a
    ``RecursionError`` from the JSON reader."""
    raw, expected, dimension = answer
    payload = {"vectors": raw} if wrapped else raw
    try:
        vectors = _parse_vectors(payload, expected, dimension)
    except ValueError:
        return
    assert len(vectors) == expected
    assert len({vector.size for vector in vectors}) == 1
    for vector in vectors:
        assert vector.dtype == np.float64 and vector.ndim == 1
        assert np.isfinite(vector).all()
        assert dimension in (None, vector.size)


def test_cli_import_loads_no_third_party_http_client(tmp_path):
    """The CLI loads no third-party HTTP client; only the vector backends load
    numpy and the standard-library HTTP client, checked in fresh interpreters."""
    src = Path(sapphire_novelty.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import sys, sapphire_novelty.cli as cli\n"
        "if sys.argv[1:]:\n"
        "    assert cli.main(sys.argv[1:]) == 0\n"
        "heavy = ('requests', 'urllib3', 'numpy', 'urllib.request', 'http.client')\n"
        "print(sorted(m for m in heavy if m in sys.modules))"
    )

    def loaded_by(*argv):
        result = subprocess.run(
            [sys.executable, "-c", code, *argv],
            env=env, capture_output=True, text=True, check=True,
        )
        return result.stdout.strip()

    vectors = tmp_path / "vectors.txt"
    vectors.write_text("spilling 1.0 0.0\nliquid 0.5 0.5\n", encoding="utf-8")
    case_study = ["rank", "--past", str(past_corpus_path()), "--current", str(current_corpus_path())]
    out = ["--out", str(tmp_path / "report.txt")]
    fixtures = ["--fixtures", str(fixture_similarities_path())]
    assert loaded_by() == "[]"
    assert loaded_by(*case_study, "--backend", "fixture", *fixtures, *out) == "[]"
    assert loaded_by(*case_study, "--backend", "lexical", *out) == "[]"
    # The probe sees the heavy modules when a vector backend asks for them:
    # numpy alone for word vectors.
    assert loaded_by(*case_study, "--backend", "wordvec", "--vectors", str(vectors), *out) == (
        "['numpy']"
    )


HTTP_STACK = ["email", "http.client", "ssl", "urllib.request"]


@pytest.mark.parametrize(
    "statement, expected",
    [
        ("import sapphire_novelty.vectors", []),
        ("import sapphire_novelty; sapphire_novelty.RemoteBackend", HTTP_STACK),
    ],
    ids=["vectors", "remote"],
)
def test_only_the_remote_backend_loads_the_http_stack(statement, expected):
    """In a fresh interpreter, the word-vector module loads no part of the
    standard library's HTTP stack; the remote backend loads all of it."""
    src = Path(sapphire_novelty.__file__).resolve().parents[1]
    code = f"import sys\n{statement}\nprint(*[m for m in {HTTP_STACK!r} if m in sys.modules])"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, check=True,
    )
    assert result.stdout.split() == expected
