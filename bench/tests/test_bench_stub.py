"""The embedding stub counts exactly the requests the remote backend makes."""

import json
import os
import shutil
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from sapphire_novelty import RemoteBackend, text_similarity
from stub import StubServer, stub_vector

BENCH = Path(__file__).resolve().parents[1]


@pytest.fixture
def server():
    stub = StubServer()
    stub.start_thread()
    yield stub
    stub.shutdown()
    stub.server_close()


def _stats(server):
    with urllib.request.urlopen(server.url.rsplit("/", 1)[0] + "/stats") as response:
        return json.loads(response.read())


def test_counts_match_batched_requests(server):
    backend = RemoteBackend(endpoint=server.url, batch_size=3)
    vectors = backend.embed_texts([f"text number {i}" for i in range(7)])
    assert [list(v) for v in vectors] == [stub_vector(f"text number {i}") for i in range(7)]
    stats = _stats(server)
    assert (stats["posts"], stats["texts"], stats["failed_posts"]) == (3, 7, 0)
    assert stats["busy_s"] > 0


def test_one_post_per_similarity_call(server):
    backend = RemoteBackend(endpoint=server.url)
    for a, b in [("a b", "c d"), ("spill", "spill"), ("lid", "vent")]:
        text_similarity(a, b, backend)
    assert (_stats(server)["posts"], _stats(server)["texts"]) == (3, 6)


def test_malformed_post_is_counted_as_failed(server):
    request = urllib.request.Request(server.url, data=b'{"texts": "not a list"}', method="POST")
    with pytest.raises(urllib.error.HTTPError) as raised:
        urllib.request.urlopen(request)
    assert raised.value.code == 400
    assert _stats(server)["failed_posts"] == 1


def test_vectors_are_deterministic_and_non_zero():
    assert stub_vector("spilling of liquid") == stub_vector("Spilling  of liquid")
    assert any(stub_vector(""))


def test_run_fails_without_the_package(tmp_path):
    """With only BENCHMARK.json and the benchmark present, a run exits non-zero and prints no result."""
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kettle-cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
