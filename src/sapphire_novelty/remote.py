"""The remote backend: sentence vectors from an embedding HTTP service.

It is the one module of the package that loads the standard library's HTTP
client; the package exports ``RemoteBackend`` lazily, so this module is
imported on first access to that name. It shares the word-vector backend's
one scoring path (:class:`sapphire_novelty.vectors._VectorBackend`) and
defines only ``_rows``, which embeds a call's unique texts; each batch's
response vectors pass the word-vector table's row rule
(:func:`sapphire_novelty.vectors._checked_rows`) into one matrix. So a
remote score is the cosine of the response vectors, clamped to [0, 1],
bit-identical to the tests' scalar reference (``tests/vector_reference.py``)
clamped at 0, except on equal texts: they share one row, which the kernel
scores exactly 1.0 if it is nonzero. A text whose response vector is all
zero scores 0.0 against every text and warns once per call, in the wording
every backend shares (``similarity._nothing_to_score``).
"""

from __future__ import annotations

import http.client
import json
import math
import numbers
import re
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .similarity import BackendUnavailableError, _count, _nothing_to_score
from .vectors import _checked_rows, _unscorable, _VectorBackend

__all__ = ["RemoteBackend"]

# Requests per batch: the first and two immediate retries.
_ATTEMPTS = 3

# The characters http.client refuses in a URL: whitespace, C0 controls and DEL;
# and outside the host, which name resolution encodes, any that is not ASCII,
# since it writes the request line in ASCII.
_REFUSED_IN_URL = re.compile(r"[\x00-\x20\x7f]")
_NON_ASCII = re.compile(r"[^\x00-\x7f]")


@dataclass(frozen=True)
class RemoteBackend(_VectorBackend):
    """Cosine over sentence vectors fetched from an embedding HTTP service.

    Wire protocol: POST to an ``http`` or ``https`` ``endpoint`` with JSON
    body ``{"texts": [...]}``; the response must be ``{"vectors": [[...], ...]}``
    with one vector per input text, in the same order, each meeting the rule
    of :func:`_checked_rows` and, if nonzero, with a squared norm that
    :func:`_unscorable` accepts; all vectors of one call to :meth:`embed_texts`,
    across its batches, share one dimension. Each call to :meth:`embed_texts`
    first checks the endpoint: one that is not a URL with a valid port, or
    whose scheme is not ``http`` or ``https``, raises
    :class:`BackendUnavailableError` before any request is sent. A 4xx status
    other than 408 and 429 is the request's fault and raises
    :class:`BackendUnavailableError` at once. A transport failure, 408, 429,
    5xx or other non-2xx status, or a response that is not JSON (one nested
    past the recursion limit included) or breaks a vector rule is retried at
    once; after three attempts at one batch the call raises
    :class:`BackendUnavailableError`.
    A text whose vector is all zero scores 0.0 against every text, itself
    included, and emits one :class:`OovWarning` per ``similarities`` call
    (inherited, as the word-vector backend's is) naming it, in order of first
    appearance, before any pair is scored.
    ``batch_size`` takes the count rule (``similarity._count``): an integer
    of at least 1 that is not a ``bool``, held as its ``int``. ``timeout``
    must be a finite number of seconds above 0. A setting that breaks its
    rule raises ``ValueError`` at construction.
    """

    endpoint: str
    batch_size: int = 32
    timeout: float = 30.0
    kind = "remote"

    def __post_init__(self) -> None:
        object.__setattr__(self, "batch_size", _count(self.batch_size, "batch_size", 1))
        # A bool is a real number to Python, but it is not a duration.
        timeout = self.timeout
        if isinstance(timeout, bool) or not isinstance(timeout, numbers.Real) or not 0 < timeout < math.inf:
            raise ValueError(f"timeout must be a finite number of seconds above 0, got {timeout!r}")

    def _rows(self, texts: list[str]) -> tuple[np.ndarray, dict[str, int]]:
        matrix = np.stack(self.embed_texts(texts))
        for text, nonzero in zip(texts, matrix.any(axis=1).tolist()):
            if not nonzero:
                _nothing_to_score(text, "its response vector is all zero")
        return matrix, {text: position for position, text in enumerate(texts)}

    def embed_texts(self, texts: Sequence[str]) -> list[np.ndarray]:
        """Embed ``texts`` in order, batching requests at ``batch_size``."""
        _check_endpoint(self.endpoint)
        vectors: list[np.ndarray] = []
        for start in range(0, len(texts), self.batch_size):
            batch = list(texts[start : start + self.batch_size])
            vectors.extend(self._post_batch(batch, vectors[0].size if vectors else None))
        return vectors

    def _post_batch(self, batch: list[str], dimension: int | None) -> np.ndarray:
        body = json.dumps({"texts": batch}).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(1, _ATTEMPTS + 1):
            try:
                request = urllib.request.Request(
                    self.endpoint, data=body, headers={"Content-Type": "application/json"}
                )
                # urlopen follows redirects and raises HTTPError for any other non-2xx status.
                with urllib.request.urlopen(request, timeout=self.timeout) as response:
                    payload = json.load(response)
                return _parse_vectors(payload, len(batch), dimension)
            except urllib.error.HTTPError as error:
                error.close()
                last_error = error
                # A 4xx other than a timeout or a rate limit is the request's fault:
                # sending it again cannot succeed.
                if 400 <= error.code < 500 and error.code not in (408, 429):
                    break
            except (OSError, http.client.HTTPException, ValueError, RecursionError) as error:
                last_error = error
        raise BackendUnavailableError(
            f"embedding service at {self.endpoint} failed after {attempt} attempt(s): {last_error}"
        )


def _check_endpoint(endpoint: str) -> None:
    """Raise :class:`BackendUnavailableError` unless ``endpoint`` is an ``http``
    or ``https`` URL that ``urllib`` can split, a port included, with a host, no
    whitespace or control character, and no character that is not ASCII but
    in the host."""
    try:
        parts = urllib.parse.urlsplit(endpoint)
        parts.port  # raises ValueError for a port that is not a number in range
    except ValueError as error:
        raise BackendUnavailableError(f"endpoint {endpoint!r} is not a valid URL: {error}") from None
    # urllib also opens file:// and ftp:// URLs; only HTTP speaks the protocol.
    if parts.scheme not in ("http", "https"):
        raise BackendUnavailableError(f"endpoint scheme must be http or https, got {parts.scheme!r}")
    # Every attempt would fail alike: urllib opens no URL without a host, and
    # http.client none with such a character, though urlsplit drops some of them.
    # The port is ASCII digits once .port accepts it.
    outside_host = (parts.netloc.rpartition("@")[0], parts.path, parts.query, parts.fragment)
    if not parts.hostname:
        reason = "no host given"
    elif refused := _REFUSED_IN_URL.search(endpoint) or _NON_ASCII.search("".join(outside_host)):
        reason = f"it holds {refused.group()!r}"
    else:
        return
    raise BackendUnavailableError(f"endpoint {endpoint!r} is not a valid URL: {reason}")


def _parse_vectors(payload: object, expected: int, dimension: int | None) -> np.ndarray:
    if not isinstance(payload, dict) or "vectors" not in payload:
        raise ValueError("response body must be an object with a 'vectors' field")
    raw = payload["vectors"]
    if not isinstance(raw, list) or len(raw) != expected:
        raise ValueError(f"expected {expected} vectors, got {len(raw) if isinstance(raw, list) else type(raw)}")
    matrix = _checked_rows(raw, map("response vector {}".format, range(expected)), dimension)
    unscorable = _unscorable(matrix)
    if unscorable.any():
        raise ValueError(
            f"response vector {int(np.argmax(unscorable))} is nonzero, but its squared norm "
            "overflows or underflows"
        )
    return matrix
