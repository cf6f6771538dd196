"""The scalar references the vector backends are tested against.

``embed_wordvector`` pools one text's word vectors as ``np.mean`` does, and
``cosine_similarity`` scores two vectors in [-1, 1]. The backends score in
bulk through ``sapphire_novelty.vectors._cosines`` and never call these: the
tests check that each bulk value is bit-identical to ``max(0.0,
cosine_similarity(...))`` of these vectors, with the same warnings, except
for the kernel's own identity rule (a nonzero row scores exactly 1.0 against
itself) and its once-per-text zero-vector warning.
"""

from __future__ import annotations

import warnings
from typing import Mapping, Sequence

import numpy as np

from sapphire_novelty import OovWarning, tokenize
from sapphire_novelty.similarity import _nothing_to_score
from sapphire_novelty.vectors import _unscorable


def cosine_similarity(u: Sequence[float] | np.ndarray, v: Sequence[float] | np.ndarray) -> float:
    """Cosine of the angle between two equal-dimension vectors, clamped to [-1, 1].

    A zero vector is the out-of-vocabulary sentinel and matches nothing, so the
    similarity is 0.0 whenever either norm vanishes; the zero-vs-zero case also
    emits an :class:`OovWarning`, once per pair; the backends warn once per
    text instead. A NaN or inf component raises ``ValueError``: it has no
    cosine, and must not pass for a dissimilar (novel) pair. So does a vector
    that breaks the rule of :func:`_unscorable`.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise ValueError("cosine of a vector with a non-finite component (NaN or inf)")
    if _unscorable(np.stack([u.ravel(), v.ravel()])).any():
        raise ValueError("cosine of a nonzero vector whose squared norm overflows or underflows")
    norm_u = float(np.linalg.norm(u))
    norm_v = float(np.linalg.norm(v))
    if norm_u == 0.0 and norm_v == 0.0:
        warnings.warn("cosine of two all-zero vectors (OOV vs OOV); defined as 0.0", OovWarning)
        return 0.0
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    value = float(np.dot(u, v)) / (norm_u * norm_v)
    return min(1.0, max(-1.0, value))


def embed_wordvector(text: str, table: Mapping[str, np.ndarray]) -> np.ndarray:
    """Mean of the vectors of the in-vocabulary tokens of ``text``.

    Out-of-vocabulary tokens are skipped; if no token is in vocabulary the
    all-zero sentinel is returned. Either way, a zero mean emits the backends'
    :class:`OovWarning` naming ``text`` and why it has nothing to score on.
    """
    if not table:
        raise ValueError("word-vector table must be non-empty")
    tokens = tokenize(text)
    vectors = [table[token] for token in tokens if token in table]
    if not vectors:
        _nothing_to_score(text, "none of its tokens has a word vector" if tokens else "it has no token")
        return np.zeros(len(next(iter(table.values()))), dtype=float)
    mean = np.mean(np.stack(vectors), axis=0)
    if not mean.any():
        _nothing_to_score(text, "its word vectors sum to zero")
    return mean
