"""The remote backend: sentence vectors from an embedding HTTP service.

It is the one module of the package that loads the standard library's HTTP
client; the package exports ``RemoteBackend`` lazily, so this module is
imported on first access to that name. It scores with the word-vector
backend's kernel (:func:`sapphire_novelty.vectors._cosines`) and checks each
response vector by the same rules, so a remote score is bit-identical to
:func:`~sapphire_novelty.vectors.cosine_similarity` of the response vectors,
clamped at 0, except on equal texts: they share one row, which the kernel
scores exactly 1.0 if it is nonzero. A text whose response vector is all zero
matches nothing and warns once per call, as a word-vector text that pools to
the zero sentinel does.
"""

from __future__ import annotations

import http.client
import json
import math
import urllib.error
import urllib.parse
import urllib.request
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .similarity import BackendUnavailableError, OovWarning, SimilarityBackend, _unique_texts
from .vectors import _checked_vector, _cosines, _unscorable

__all__ = ["RemoteBackend"]


@dataclass(frozen=True)
class RemoteBackend(SimilarityBackend):
    """Cosine over sentence vectors fetched from an embedding HTTP service.

    Wire protocol: POST to an ``http`` or ``https`` ``endpoint`` with JSON
    body ``{"texts": [...]}``; the response must be ``{"vectors": [[...], ...]}``
    with one vector per input text, in the same order, each meeting the rule
    of :func:`_checked_vector` and, if nonzero, with a squared norm that
    :func:`_unscorable` accepts; all vectors of one call to :meth:`embed_texts`,
    across its batches, share one dimension. A 4xx status other than 408 and
    429 is the request's fault and raises :class:`BackendUnavailableError` at
    once. So does an endpoint whose scheme is not ``http`` or ``https``,
    before any request is sent. A transport failure, 408, 429, 5xx or other
    non-2xx status, or a response that is not JSON (one nested past the
    recursion limit included) or breaks a vector rule is retried; after
    ``retries`` attempts the call raises :class:`BackendUnavailableError`.
    A text whose vector is all zero scores 0.0 against every text, itself
    included, and emits one :class:`OovWarning` per :meth:`similarities`
    call naming it, in order of first appearance, before any pair is scored.
    ``batch_size`` and ``retries`` below 1, and a ``timeout`` that is not a
    finite number above 0, raise ``ValueError`` at construction.
    """

    endpoint: str
    batch_size: int = 32
    timeout: float = 30.0
    retries: int = 3
    kind = "remote"

    def __post_init__(self) -> None:
        for name in ("batch_size", "retries"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not 0 < self.timeout < math.inf:
            raise ValueError(f"timeout must be a finite number of seconds above 0, got {self.timeout}")

    def similarities(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        if not pairs:
            return []
        texts = _unique_texts(pairs)
        where = {text: position for position, text in enumerate(texts)}
        matrix = np.stack(self.embed_texts(texts))
        for text, nonzero in zip(texts, matrix.any(axis=1).tolist()):
            if not nonzero:
                warnings.warn(f"all-zero response vector for {text!r}; it matches nothing", OovWarning)
        return _cosines(matrix, pairs, where)

    def embed_texts(self, texts: Sequence[str]) -> list[np.ndarray]:
        """Embed ``texts`` in order, batching requests at ``batch_size``."""
        vectors: list[np.ndarray] = []
        for start in range(0, len(texts), self.batch_size):
            batch = list(texts[start : start + self.batch_size])
            vectors.extend(self._post_batch(batch, vectors[0].size if vectors else None))
        return vectors

    def _post_batch(self, batch: list[str], dimension: int | None) -> list[np.ndarray]:
        # urllib also opens file:// and ftp:// URLs; only HTTP speaks the protocol.
        scheme = urllib.parse.urlsplit(self.endpoint).scheme
        if scheme not in ("http", "https"):
            raise BackendUnavailableError(f"endpoint scheme must be http or https, got {scheme!r}")
        body = json.dumps({"texts": batch}).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(1, self.retries + 1):
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
            except (
                OSError, http.client.HTTPException, ValueError, KeyError, TypeError, RecursionError
            ) as error:
                last_error = error
        raise BackendUnavailableError(
            f"embedding service at {self.endpoint} failed after {attempt} attempt(s): {last_error}"
        )


def _parse_vectors(payload: object, expected: int, dimension: int | None) -> list[np.ndarray]:
    if not isinstance(payload, dict) or "vectors" not in payload:
        raise ValueError("response body must be an object with a 'vectors' field")
    raw = payload["vectors"]
    if not isinstance(raw, list) or len(raw) != expected:
        raise ValueError(f"expected {expected} vectors, got {len(raw) if isinstance(raw, list) else type(raw)}")
    vectors = []
    for index, item in enumerate(raw):
        vectors.append(_checked_vector(item, dimension, f"response vector {index}"))
        dimension = vectors[0].size
    unscorable = _unscorable(np.stack(vectors))
    if unscorable.any():
        raise ValueError(
            f"response vector {int(np.argmax(unscorable))} is nonzero, but its squared norm "
            "overflows or underflows"
        )
    return vectors
