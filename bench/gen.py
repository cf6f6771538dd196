"""Seeded input generator for the benchmark workloads.

``generate(workload, seed, out_dir)`` writes the past and current JSONL
corpora (and, for the word-vector workload, the vector file) and returns
their paths plus what the oracles need. The same seed gives the same bytes.

``python3 bench/gen.py --workload NAME --seed N --out DIR`` writes the files
and prints the workload properties a performance claim must cite: problems
per side, unique texts per level, text-reuse share, gate-pass share and OOV
share.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracle import (  # noqa: E402
    MeanPool,
    Similarity,
    fixture_similarity,
    gate_count,
    lexical_similarity,
    tokens,
    vector_similarity,
)
from stub import stub_vector  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "sapphire_novelty" / "data"

#: The library's default action-gate threshold, which every workload runs at.
THRESHOLD = 0.7

LEVELS = ("action", "state_change", "phenomena", "effect", "input", "organ", "parts")


@dataclass(frozen=True)
class Workload:
    past: int
    current: int
    backend: str
    command: str  # "assess" (full report) or "rank" (summary only)
    format: str


WORKLOADS = {
    # Every pair passes the gate and texts repeat: similarity, aggregation and
    # the 8 MB full-precision JSON report all carry weight.
    "dense-lexical-json": Workload(100, 100, "lexical", "assess", "json"),
    # ~4% of pairs pass the gate and most texts are unique: the similarity
    # layer mostly serves gate checks; vector parsing sits in set-up.
    "sparse-wordvec-rank": Workload(1000, 40, "wordvec", "rank", "table"),
    # Every pair passes the gate and each comparison is an HTTP round-trip.
    "remote-stub-csv": Workload(10, 10, "remote", "assess", "csv"),
    # The bundled case study through the real CLI, one process per pass.
    "kettle-cli": Workload(2, 3, "fixture", "assess", "table"),
}

_DOMAIN_WORDS = (
    "kettle water steam lid heat coil spout boil spill seal valve handle burn "
    "scald liquid vessel base element vent rim brim pressure vapour level flow "
    "surface wall cord switch plate bubble foam drip leak splash tilt pour "
    "grip hinge filter"
).split()

_SYLLABLES = [c + v for c in "bdfgklmnprstvzh" for v in "aeiou"]

WORDVEC_VOCABULARY = 20_000
WORDVEC_OOV_WORDS = 2_000
WORDVEC_DIMENSION = 100
WORDVEC_ACTIONS = 25


@dataclass
class Inputs:
    """Generated files plus the data the oracles need."""

    workload: str
    spec: Workload
    past_path: Path
    current_path: Path
    past: list[dict]
    current: list[dict]
    vectors_path: Path | None = None
    mean_pool: MeanPool | None = None

    def oracle(self) -> Similarity:
        """The independent oracle for this workload's backend."""
        return {
            "lexical": lambda: lexical_similarity,
            "wordvec": lambda: self.mean_pool.similarity,
            "remote": lambda: vector_similarity(stub_vector),
            "fixture": lambda: fixture_similarity(str(DATA / "kettle_similarities.tsv")),
        }[self.spec.backend]()


def _record(problem_id: str, role: str, constructs: dict[str, str]) -> dict:
    return {
        "id": problem_id,
        "label": f"synthetic {role} problem {problem_id}",
        "provenance": role,
        "source": "seeded generator",
        "context": "synthetic appliance",
        "constructs": constructs,
    }


def _phrase(rng: random.Random, words: list[str], low: int, high: int) -> str:
    return " ".join(rng.choice(words) for _ in range(rng.randint(low, high)))


def _corpora(spec, action, text, bare=0):
    """Past and current records; ``action(role, i)`` and ``text(level)`` draw the phrases.

    Problem i lacks the (i mod 7)-th level (none when i mod 7 is 0), so the
    number of scored levels, and with it the cost of a pass, does not depend
    on the seed. The last ``bare`` problems of each side carry only the
    action: their pairs pass the gate with no level to compare, and a bare
    current problem is left unranked.
    """
    sides = []
    for role, size, prefix in (("past", spec.past, "P"), ("current", spec.current, "C")):
        records = []
        for i in range(size):
            constructs = {"action": action(role, i)}
            for k, level in enumerate(LEVELS[1:], start=1):
                if k != i % 7 and i < size - bare:
                    constructs[level] = text(level)
            records.append(_record(f"{prefix}{i:04d}", role, constructs))
        sides.append(records)
    return sides


def _write_jsonl(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False))
            handle.write("\n")


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _pseudo_words(rng: random.Random, count: int) -> list[str]:
    n = len(_SYLLABLES)
    codes = rng.sample(range(n**3), count)
    return [_SYLLABLES[c // n**2] + _SYLLABLES[c // n % n] + _SYLLABLES[c % n] for c in codes]


def _write_vectors(path: Path, words: list[str], ints: np.ndarray) -> None:
    """Text word-vector file; component k/10000 is written with four decimals."""
    low = int(ints.min())
    strings = [f"{k / 10000:.4f}" for k in range(low, int(ints.max()) + 1)]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"{len(words)} {ints.shape[1]}\n")
        for word, row in zip(words, (ints - low).tolist()):
            handle.write(word + " " + " ".join([strings[k] for k in row]) + "\n")


def generate(workload: str, seed: int, out_dir: Path) -> Inputs:
    spec = WORKLOADS[workload]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "kettle-cli":
        past_path, current_path = DATA / "kettle_past.jsonl", DATA / "kettle_current.jsonl"
        return Inputs(workload, spec, past_path, current_path,
                      _read_jsonl(past_path), _read_jsonl(current_path))

    vectors_path = mean_pool = None
    if workload == "dense-lexical-json":
        # Fixed phrase lengths keep the cost of a pass the same across seeds.
        pools = {
            level: [_phrase(rng, _DOMAIN_WORDS, 2 + j % 4, 2 + j % 4) for j in range(30)]
            for level in LEVELS
        }
        past, current = _corpora(
            spec, lambda role, i: "spilling of liquid", lambda level: rng.choice(pools[level]),
            bare=1,
        )
    elif workload == "remote-stub-csv":
        past, current = _corpora(
            spec, lambda role, i: "spilling of liquid",
            lambda level: _phrase(rng, _DOMAIN_WORDS, 2, 5),
        )
    else:  # sparse-wordvec-rank
        words = _pseudo_words(rng, WORDVEC_VOCABULARY + WORDVEC_OOV_WORDS)
        known = words[:WORDVEC_VOCABULARY]
        # Action phrases use disjoint in-vocabulary words, so only equal phrases
        # match; each phrase goes to equally many past problems, so the number of
        # gated pairs is the same for every seed.
        action_words = iter(known)
        actions = [
            " ".join(next(action_words) for _ in range(2 + j % 3)) for j in range(WORDVEC_ACTIONS)
        ]
        assigned = {
            role: rng.sample([actions[i % len(actions)] for i in range(size)], size)
            for role, size in (("past", spec.past), ("current", spec.current))
        }
        past, current = _corpora(
            spec, lambda role, i: assigned[role][i], lambda level: _phrase(rng, words, 1, 6)
        )
        ints = np.random.default_rng(seed).integers(
            -9999, 10000, size=(WORDVEC_VOCABULARY, WORDVEC_DIMENSION)
        )
        vectors_path = out_dir / "vectors.txt"
        _write_vectors(vectors_path, known, ints)
        mean_pool = MeanPool(known, ints / 10000)

    past_path, current_path = out_dir / "past.jsonl", out_dir / "current.jsonl"
    _write_jsonl(past_path, past)
    _write_jsonl(current_path, current)
    return Inputs(workload, spec, past_path, current_path, past, current, vectors_path, mean_pool)


def _level_texts(records: list[dict]) -> dict[str, list[str]]:
    """Construct texts by level key, in record order."""
    texts: dict[str, list[str]] = {}
    for record in records:
        for key, text in record["constructs"].items():
            texts.setdefault(key, []).append(text)
    return texts


def _reuse_share(texts: dict[str, list[str]]) -> float:
    """Share of text occurrences that repeat a text seen before."""
    occurrences = sum(len(group) for group in texts.values())
    unique = len({text for group in texts.values() for text in group})
    return round(1 - unique / occurrences, 4)


def gate_bounds(inputs: Inputs) -> tuple[int, int]:
    """Oracle bounds on the number of pairs that pass the action gate."""
    actions = [[r["constructs"]["action"] for r in side] for side in (inputs.past, inputs.current)]
    return gate_count(*actions, inputs.oracle(), THRESHOLD)


def properties(inputs: Inputs, gate: tuple[int, int]) -> dict:
    """The workload properties that decide which optimisations can help it.

    ``gate`` is the result of ``gate_bounds``, which callers often have already.
    """
    texts = _level_texts(inputs.past + inputs.current)
    scored = {level: group for level, group in texts.items() if level != "action"}
    low = gate[0]
    pairs = len(inputs.past) * len(inputs.current)
    oov_share = 0.0
    if inputs.mean_pool is not None:
        words = [t for group in texts.values() for text in group for t in tokens(text)]
        oov_share = sum(not inputs.mean_pool.in_vocabulary(t) for t in words) / len(words)
    return {
        "past_problems": len(inputs.past),
        "current_problems": len(inputs.current),
        "unique_texts_per_level": {level: len(set(texts.get(level, []))) for level in LEVELS},
        "text_reuse_share": _reuse_share(texts),
        "scored_text_reuse_share": _reuse_share(scored),
        "gate_pass_share": round(low / pairs, 4),
        "oov_share": round(oov_share, 4),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    inputs = generate(args.workload, args.seed, args.out)
    props = properties(inputs, gate_bounds(inputs))
    print(json.dumps({"workload": args.workload, "seed": args.seed, **props}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
