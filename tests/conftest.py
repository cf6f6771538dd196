"""Shared fixtures: case-study columns, a stub embedding service and random-corpus helpers."""

from __future__ import annotations

import json
import random
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from sapphire_novelty import (
    ConstructLevel,
    ProblemCorpus,
    ProblemSapphire,
    Provenance,
)

# ---------------------------------------------------------------------------
# bundled case study

# Per-construct novelty columns of the bundled case study, one per pair, in
# the order of the six non-Action levels (state_change, phenomena, effect,
# input, organ, parts). Each value is 1 - the pinned similarity in
# kettle_similarities.tsv.
CASE_STUDY_NOVELTY = {
    ("PS1", "PS3"): [0.686, 0.519, 0.0, 0.699, 0.796, 0.613],
    ("PS1", "PS4"): [0.679, 0.587, 0.629, 0.699, 0.628, 0.694],
    ("PS1", "PS5"): [0.679, 0.68, 0.629, 0.699, 0.725, 0.822],
    ("PS2", "PS3"): [0.506, 0.625, 0.662, 0.763, 0.535, 0.644],
    ("PS2", "PS4"): [0.553, 0.779, 0.755, 0.763, 0.579, 0.643],
    ("PS2", "PS5"): [0.553, 0.799, 0.755, 0.763, 0.588, 0.731],
}


# ---------------------------------------------------------------------------
# stub embedding service


def canned_vector(text: str) -> list[float]:
    """Deterministic per-text vector; never all-zero, so ordering is checkable."""
    data = text.encode("utf-8")
    return [float(len(data)), float(sum(data) % 97 + 1), float(text.count(" ") + 1)]


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        stub: EmbeddingStub = self.server.stub  # type: ignore[attr-defined]
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        texts = body.get("texts", [])
        stub.batches.append(list(texts))
        if stub.fail_remaining > 0:
            stub.fail_remaining -= 1
            self._respond(stub.fail_status, b"failure")
            return
        if stub.mode == "ok":
            payload = {"vectors": [canned_vector(t) for t in texts]}
        elif stub.mode == "bad_count":
            payload = {"vectors": [canned_vector(t) for t in texts[:-1]]}
        elif stub.mode == "missing_field":
            payload = {"embeddings": [canned_vector(t) for t in texts]}
        elif stub.mode == "mixed_dims":
            payload = {"vectors": [[1.0, 2.0]] + [[1.0]] * (len(texts) - 1)}
        elif stub.mode == "non_finite":
            # json.dumps writes NaN, which the client's JSON parser accepts.
            payload = {"vectors": [[float("nan"), 1.0, 1.0] for _ in texts]}
        elif stub.mode == "string_components":
            payload = {"vectors": [["1.5", "2"] for _ in texts]}
        elif stub.mode == "bool_components":
            payload = {"vectors": [[True, False] for _ in texts]}
        elif stub.mode == "empty_vectors":
            payload = {"vectors": [[] for _ in texts]}
        elif stub.mode == "table":
            payload = {"vectors": [stub.table[t] for t in texts]}
        elif stub.mode == "growing_dims":
            # The n-th POST answers vectors of n + 1 components.
            payload = {"vectors": [[1.0] * (len(stub.batches) + 1) for _ in texts]}
        else:
            raise AssertionError(f"unknown stub mode {stub.mode}")
        self._respond(200, json.dumps(payload).encode("utf-8"))

    def _respond(self, status: int, data: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args) -> None:  # silence per-request noise
        pass


class EmbeddingStub:
    """In-process embedding service speaking the documented wire protocol."""

    def __init__(self) -> None:
        self.batches: list[list[str]] = []
        # The next ``fail_remaining`` POSTs are answered with ``fail_status``.
        self.fail_remaining = 0
        self.fail_status = 500
        self.mode = "ok"
        # The vector of each text in mode "table".
        self.table: dict[str, list[float]] = {}
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
        self._server.stub = self  # type: ignore[attr-defined]
        # A short poll interval: close() waits up to one interval for the server loop.
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        self._thread.start()
        self.url = f"http://127.0.0.1:{self._server.server_port}/embed"

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()


@pytest.fixture
def embed_stub():
    stub = EmbeddingStub()
    yield stub
    stub.close()


# ---------------------------------------------------------------------------
# random corpora

_WORDS = [
    "kettle", "water", "steam", "lid", "heat", "coil", "spout", "boil",
    "spill", "seal", "valve", "handle", "burn", "scald", "überdruck", "café",
]


def random_phrase(rng: random.Random, low: int = 1, high: int = 6) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(low, high)))


def random_problem(rng: random.Random, problem_id: str, role: Provenance) -> ProblemSapphire:
    constructs = {ConstructLevel.ACTION: random_phrase(rng)}
    for level in list(ConstructLevel)[1:]:
        if rng.random() < 0.75:
            constructs[level] = random_phrase(rng)
    return ProblemSapphire(
        id=problem_id,
        label=random_phrase(rng),
        provenance=role,
        source=random_phrase(rng, 1, 3),
        context=rng.choice(["electric kettle", "toaster", "café machine"]),
        constructs=constructs,
    )


def random_corpus(rng: random.Random, name: str, role: Provenance, size: int) -> ProblemCorpus:
    problems = tuple(random_problem(rng, f"{name}-{i}", role) for i in range(size))
    return ProblemCorpus(name=name, role=role, problems=problems)


# ---------------------------------------------------------------------------
# acceptance-criteria summary lines

_acceptance_outcomes: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        _acceptance_outcomes[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    by_name = {nodeid.split("::")[-1]: outcome for nodeid, outcome in _acceptance_outcomes.items()}
    for name in sorted(by_name):
        verdict = "PASS" if by_name[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"{verdict}  {name}")
