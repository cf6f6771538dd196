# Text similarity backends: how two construct phrases become a score in [0, 1].
#
# Four interchangeable backends exist; this demo exercises the two that are
# fully local. The remote backend (an embedding HTTP service speaking
# {"texts": [...]}-in / {"vectors": [...]}-out) and the fixture backend
# (pinned pair scores) appear in demo 04.

import tempfile
from pathlib import Path

from sapphire_novelty import (
    LexicalBackend,
    WordVectorBackend,
    text_similarity,
    tokenize,
)

# Tokenization lowercases and splits on anything non-alphanumeric.
print(tokenize("static-to-movable LIQUID"))

# The lexical backend counts shared words over the pair's own vocabulary.
lexical = LexicalBackend()
pairs = [
    ("spilling of liquid", "spilling of liquid"),
    ("Contained to leak body", "static to movable liquid"),
    ("alpha beta", "gamma delta"),
]
for a, b in pairs:
    print(f"lexical({a!r}, {b!r}) = {text_similarity(a, b, lexical)}")

# Cosine is the common core of every vector backend: here of the vectors
# (1, 1, 0) and (1, 0, 0), given to two one-word texts.
unit_vectors = WordVectorBackend(table={"a": (1.0, 1.0, 0.0), "b": (1.0, 0.0, 0.0)})
print("cosine((1,1,0), (1,0,0)) =", text_similarity("a", "b", unit_vectors))

# The word-vector backend mean-pools pre-trained vectors from the standard
# text format: optional "<count> <dim>" header, then "word v1 ... vd" lines.
# The backend holds the parsed vectors, so the file can go once it is read.
with tempfile.TemporaryDirectory() as directory:
    vector_path = Path(directory) / "vectors.txt"
    vector_path.write_text(
        "4 3\n"
        "water 0.9 0.1 0.0\n"
        "liquid 0.8 0.2 0.1\n"
        "steam 0.2 0.9 0.1\n"
        "lid 0.0 0.1 0.9\n",
        encoding="utf-8",
    )
    wordvec = WordVectorBackend.from_file(vector_path)

print("wordvec water/liquid =", text_similarity("water", "liquid", wordvec))
print("wordvec water/lid    =", text_similarity("water", "lid", wordvec))

# Out-of-vocabulary tokens are skipped; a fully out-of-vocabulary phrase
# embeds to the zero sentinel and scores 0 (with an OovWarning).
import warnings

with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    print("wordvec water/xyzzy  =", text_similarity("water", "xyzzy", wordvec))
    print("warned:", [str(w.message) for w in caught])
