"""Wire-protocol checks for the remote embedding backend, against a stub server."""

import json
import os
import subprocess
import sys
import urllib.request
import warnings
from pathlib import Path

import numpy as np
import pytest

import sapphire_novelty
from sapphire_novelty import (
    BackendUnavailableError,
    NoveltyBand,
    OovWarning,
    ProblemCorpus,
    ProblemSapphire,
    Provenance,
    RemoteBackend,
    cosine_similarity,
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

from conftest import canned_vector


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
            [(OovWarning, "all-zero response vector for 'spill'; it matches nothing")],
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
            (OovWarning, "all-zero response vector for 'liquid leaves the kettle'; it matches nothing")
        ]


class TestRetries:
    def test_transient_failures_are_retried(self, embed_stub):
        embed_stub.fail_remaining = 2
        backend = RemoteBackend(endpoint=embed_stub.url, retries=3)
        vectors = backend.embed_texts(["a b"])
        assert list(vectors[0]) == canned_vector("a b")
        assert len(embed_stub.batches) == 3  # two failures plus the success

    def test_exhausted_retries_raise_backend_unavailable(self, embed_stub):
        embed_stub.fail_remaining = 5
        backend = RemoteBackend(endpoint=embed_stub.url, retries=2)
        with pytest.raises(BackendUnavailableError, match="after 2 attempt"):
            backend.embed_texts(["a b"])
        assert len(embed_stub.batches) == 2

    @pytest.mark.parametrize("status", [400, 404])
    def test_client_error_fails_at_once(self, embed_stub, status):
        embed_stub.fail_remaining, embed_stub.fail_status = 5, status
        backend = RemoteBackend(endpoint=embed_stub.url, retries=3)
        with pytest.raises(BackendUnavailableError, match=f"after 1 attempt.*{status}"):
            backend.embed_texts(["a b"])
        assert len(embed_stub.batches) == 1

    @pytest.mark.parametrize("status", [408, 429, 500])
    def test_timeout_rate_limit_and_server_errors_are_retried(self, embed_stub, status):
        embed_stub.fail_remaining, embed_stub.fail_status = 5, status
        backend = RemoteBackend(endpoint=embed_stub.url, retries=3)
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
        backend = RemoteBackend(endpoint=embed_stub.url, retries=2)
        with pytest.raises(BackendUnavailableError, match="expected 2 vectors"):
            backend.embed_texts(["a", "b"])

    def test_missing_vectors_field_is_a_shape_error(self, embed_stub):
        embed_stub.mode = "missing_field"
        backend = RemoteBackend(endpoint=embed_stub.url, retries=1)
        with pytest.raises(BackendUnavailableError, match="vectors"):
            backend.embed_texts(["a", "b"])

    def test_mixed_dimensions_rejected(self, embed_stub):
        embed_stub.mode = "mixed_dims"
        backend = RemoteBackend(endpoint=embed_stub.url, retries=1)
        with pytest.raises(BackendUnavailableError, match="mixed dimensions"):
            backend.embed_texts(["a", "b"])

    def test_non_finite_component_rejected_and_retried(self, embed_stub):
        embed_stub.mode = "non_finite"
        backend = RemoteBackend(endpoint=embed_stub.url, retries=2)
        with pytest.raises(BackendUnavailableError, match="finite"):
            backend.embed_texts(["a", "b"])
        assert len(embed_stub.batches) == 2

    @pytest.mark.parametrize(
        "mode", ["string_components", "bool_components", "empty_vectors", "deep_nesting"]
    )
    def test_non_number_or_empty_vectors_rejected_and_retried(self, embed_stub, mode):
        embed_stub.mode = mode
        backend = RemoteBackend(endpoint=embed_stub.url, retries=2)
        # A response nested past the recursion limit fails in the JSON parser.
        reason = "recursion depth" if mode == "deep_nesting" else "non-empty flat array of numbers"
        with pytest.raises(BackendUnavailableError, match=reason):
            backend.embed_texts(["a", "b"])
        assert len(embed_stub.batches) == 2

    @pytest.mark.parametrize("vector", [[1e200, 1.0], [1e-170, 1e-170]], ids=["overflow", "underflow"])
    def test_squared_norm_that_overflows_or_underflows_is_retried(self, embed_stub, vector):
        embed_stub.mode = "table"
        embed_stub.table = {"a b": [1.0, 0.0], "c d": vector}
        backend = RemoteBackend(endpoint=embed_stub.url, retries=2)
        with pytest.raises(
            BackendUnavailableError,
            match="after 2 attempt.*response vector 1 is nonzero, but its squared norm overflows or underflows",
        ):
            text_similarity("a b", "c d", backend)
        assert embed_stub.batches == [["a b", "c d"]] * 2

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
        backend = RemoteBackend(endpoint=embed_stub.url, batch_size=1, retries=2)
        with pytest.raises(
            BackendUnavailableError,
            match="after 2 attempt.*mixed dimensions: response vector 0 has 4 components, expected 2",
        ):
            backend.similarity("a", "b")
        assert embed_stub.batches == [["a"], ["b"], ["b"]]

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
        backend = RemoteBackend(endpoint="http://127.0.0.1:9/embed", retries=2, timeout=1)
        with pytest.raises(BackendUnavailableError):
            backend.embed_texts(["a"])


class TestConstruction:
    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, batch_size):
        with pytest.raises(ValueError, match=f"batch_size must be at least 1, got {batch_size}"):
            RemoteBackend(endpoint="http://127.0.0.1:9/embed", batch_size=batch_size)

    def test_retries_below_one_rejected(self):
        with pytest.raises(ValueError, match="retries must be at least 1, got 0"):
            RemoteBackend(endpoint="http://127.0.0.1:9/embed", retries=0)

    @pytest.mark.parametrize("timeout", [0, -1, float("nan"), float("inf")])
    def test_timeout_not_finite_and_above_zero_rejected(self, timeout):
        with pytest.raises(ValueError, match=f"timeout must be a finite number .* got {timeout}"):
            RemoteBackend(endpoint="http://127.0.0.1:9/embed", timeout=timeout)


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
        backend = RemoteBackend(endpoint=endpoint, retries=2)
        with pytest.raises(BackendUnavailableError, match="scheme must be http or https"):
            backend.embed_texts(["a"])

    def test_non_http_endpoint_fails_before_the_first_attempt(self, monkeypatch):
        def urlopen(*args, **kwargs):
            raise AssertionError("a non-HTTP endpoint was opened")

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        backend = RemoteBackend(endpoint="ftp://127.0.0.1:9/embed", retries=3)
        with pytest.raises(BackendUnavailableError) as raised:
            backend.embed_texts(["a"])
        assert str(raised.value) == "endpoint scheme must be http or https, got 'ftp'"


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
