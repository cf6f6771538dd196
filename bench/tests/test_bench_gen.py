"""The seeded generator: same seed, same bytes; the printed properties hold."""

import json
import subprocess
import sys

import pytest

import gen


def _files(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", ["dense-lexical-json", "sparse-wordvec-rank", "remote-stub-csv"])
def test_same_seed_same_bytes(tmp_path, workload):
    gen.generate(workload, 7, tmp_path / "a")
    gen.generate(workload, 7, tmp_path / "b")
    gen.generate(workload, 8, tmp_path / "c")
    first = _files(tmp_path / "a")
    assert first == _files(tmp_path / "b")
    assert first["past.jsonl"] != _files(tmp_path / "c")["past.jsonl"]


def test_wordvec_properties(tmp_path):
    inputs = gen.generate("sparse-wordvec-rank", 3, tmp_path)
    props = gen.properties(inputs, gen.gate_bounds(inputs))
    assert (props["past_problems"], props["current_problems"]) == (1000, 40)
    assert 0.02 < props["gate_pass_share"] < 0.07
    assert 0.03 < props["oov_share"] < 0.15
    assert props["scored_text_reuse_share"] < 0.05
    header = inputs.vectors_path.read_text().split("\n", 1)[0]
    assert header == f"{gen.WORDVEC_VOCABULARY} {gen.WORDVEC_DIMENSION}"


def test_dense_properties(tmp_path):
    inputs = gen.generate("dense-lexical-json", 3, tmp_path)
    props = gen.properties(inputs, gen.gate_bounds(inputs))
    assert props["gate_pass_share"] == 1.0
    assert props["scored_text_reuse_share"] > 0.5
    assert max(props["unique_texts_per_level"].values()) <= 30


def test_cli_prints_properties(tmp_path):
    done = subprocess.run(
        [sys.executable, str(gen.Path(gen.__file__)), "--workload", "remote-stub-csv",
         "--seed", "1", "--out", str(tmp_path)],
        capture_output=True, text=True, check=True,
    )
    props = json.loads(done.stdout)
    assert set(props) >= {
        "past_problems", "current_problems", "unique_texts_per_level",
        "text_reuse_share", "gate_pass_share", "oov_share",
    }
    assert (tmp_path / "past.jsonl").is_file()
