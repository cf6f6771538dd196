"""Embedding stub: a single-threaded HTTP service speaking the remote backend's protocol.

POST any path with ``{"texts": [...]}`` and get ``{"vectors": [[...], ...]}``,
one vector per text, in order. A vector is the sum of per-token vectors
hashed from each token, plus a bias on the first component, so it is
deterministic, never all-zero, and texts sharing words come out similar.

The stub counts what it serves: POSTs, texts, time spent handling POSTs, and
POSTs it rejected. ``GET /stats`` returns those counts and is not itself
counted. Connections are HTTP/1.1, so a client that keeps them alive can
reuse one; an idle connection is dropped after ``IDLE_TIMEOUT_S``.

Run ``python3 bench/stub.py``: it prints its port on the first line of
standard output and serves until terminated.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
from functools import lru_cache
from http.server import BaseHTTPRequestHandler, HTTPServer
from time import perf_counter

DIMENSION = 64
IDLE_TIMEOUT_S = 0.5

_TOKEN = re.compile(r"[^\W_]+")


@lru_cache(maxsize=None)
def _token_vector(token: str) -> tuple[float, ...]:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=DIMENSION).digest()
    return tuple((byte - 127.5) / 127.5 for byte in digest)


def stub_vector(text: str) -> list[float]:
    """The vector the stub returns for ``text``."""
    vector = [0.0] * DIMENSION
    vector[0] = 1.0
    for token in _TOKEN.findall(text.lower()):
        for i, value in enumerate(_token_vector(token)):
            vector[i] += value
    return vector


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = IDLE_TIMEOUT_S
    # Headers and body go out as two writes; with Nagle's algorithm on, the
    # body can wait for the client's delayed ACK and add tens of milliseconds.
    disable_nagle_algorithm = True

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        started = perf_counter()
        server: StubServer = self.server  # type: ignore[assignment]
        try:
            body = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
            texts = body["texts"]
            if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
                raise TypeError("texts must be a list of strings")
        except (ValueError, KeyError, TypeError) as error:
            server.failed_posts += 1
            texts = []
            self._respond(400, {"error": str(error)})
        else:
            self._respond(200, {"vectors": [stub_vector(text) for text in texts]})
        server.posts += 1
        server.texts += len(texts)
        server.busy_s += perf_counter() - started

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if self.path == "/stats":
            self._respond(200, self.server.stats())  # type: ignore[attr-defined]
        else:
            self._respond(404, {"error": "not found"})

    def _respond(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args) -> None:
        pass


class StubServer(HTTPServer):
    """The stub bound to an ephemeral port on the loopback interface."""

    def __init__(self) -> None:
        super().__init__(("127.0.0.1", 0), _Handler)
        self.posts = 0
        self.texts = 0
        self.busy_s = 0.0
        self.failed_posts = 0

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_port}/embed"

    def stats(self) -> dict:
        return {
            "posts": self.posts,
            "texts": self.texts,
            "busy_s": self.busy_s,
            "failed_posts": self.failed_posts,
        }

    def start_thread(self) -> threading.Thread:
        """Serve from a daemon thread (for tests); stop with ``shutdown()``."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread


def main() -> None:
    server = StubServer()
    print(server.server_port, flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
