"""Pinned sha256 digests of rendered reports, guarding byte-identity.

Any change to the pipeline or the renderers that moves a single byte of a
report for a deterministic backend fails here. The inputs are the bundled
case study (fixture backend) and two seeded random corpus pairs (lexical
backend); word vectors are left out because numpy's summation order may vary
by platform.
"""

import hashlib
import random

import pytest

from sapphire_novelty import LexicalBackend, Provenance, rank_current_problems, render_report
from sapphire_novelty.data import load_case_study

from conftest import random_corpus

DIGESTS = {
    ("kettle", 0.0, "table", False): "e4cd5af23a0648a2ddf172774fb8670bf46d8ed6329e37b6182f3c42ad788034",
    ("kettle", 0.0, "table", True): "8408504d2249bf340b30aa361bd23765725e4e2ed73c39772eb3c761d58b66fb",
    ("kettle", 0.0, "csv", False): "8ee7b6325efbd0c9edf38a0c4259783d787a3d9c90d6b0093cb45fb28c64ccb7",
    ("kettle", 0.0, "csv", True): "40f3d5215ac498d2ad6c2eb9d1babcb52fb4a01d2bc7081f64bab0aef4094966",
    ("kettle", 0.0, "json", False): "f58cb189d951797c238f8d0620e48e5211e909473021ff3f76f58972d3b98256",
    ("kettle", 0.0, "json", True): "37e207e73a8869403bb6bbf380a2b701a2abad5359793483f1c7fd2f048ac345",
    ("kettle", 0.7, "table", False): "c2b8ad52a7fd8ee5898fe856128a0b404901dd2d948f184d29256b1b183cc84b",
    ("kettle", 0.7, "table", True): "1605cfeb72b8afcaa40a231eec3766133718fab930e7dfade65db3e5038ba157",
    ("kettle", 0.7, "csv", False): "4e369456d9942f9f9b2a6cef564b3bc53b6ac8613ff0b2db039e6bab674fe164",
    ("kettle", 0.7, "csv", True): "1dc3837c91f6bab7675eb02fd8480116ca7d7651ddaec53a3f66f34d97e22df3",
    ("kettle", 0.7, "json", False): "37b12206fd478ec5c4cabd19c0c00a1b07cb29d219d1879b1bd1249b17522e23",
    ("kettle", 0.7, "json", True): "0556c68a9a9f5b616e9c00ef7be843487f5f30cd4e5e813f066ce9ffc0acb90b",
    ("random-1", 0.0, "table", False): "40f47bb00b5d827fe76308808677dc8755b6d11db35e45cee2e55a31264dc4fa",
    ("random-1", 0.0, "table", True): "bb83f90edb3e41f4a35fa896e88d599a4acb276b418351b69572bd336c1987b3",
    ("random-1", 0.0, "csv", False): "329d254c2aeaf85234d3666b27eedc920177a4a8425dffdc6c95c46865d8bf3a",
    ("random-1", 0.0, "csv", True): "0dd88bff73d87b305d019054482cd407218c1dc216dc342c4fe3a542ff3534a7",
    ("random-1", 0.0, "json", False): "e868cc8ee6943b9e770c2bcab0368191842cdbaa5aa206ccd183706a87bcb5c1",
    ("random-1", 0.0, "json", True): "9d5312c386d9ff2c1b815127c02ec0e5856c5f471d3d65af377a8e039c76e29c",
    ("random-1", 0.7, "table", False): "35ec7daca732bb90186705fd6e1c5df7d065598c9948258e6264a6d34f7b56b9",
    ("random-1", 0.7, "table", True): "e98f48b2d1502cee2bb672dfe0e1cba1971c719b9f807ad1da1cc25074926695",
    ("random-1", 0.7, "csv", False): "520301632392cd40132d4c91d90315038403b3420e0932a28818ba5413dfe371",
    ("random-1", 0.7, "csv", True): "0bf09af90e06ca0ba85602df60b8980cf54cce3f7f2832813c52c9812bd8393d",
    ("random-1", 0.7, "json", False): "50ba186c34891c56a21f6804475ed1e96bcaa2245d4c9f35454ddc2d944fa4ce",
    ("random-1", 0.7, "json", True): "4318ba96330e67473fb0352dced47428ea14ed2f4d8fd13f1e29f79bb542c46d",
    ("random-2", 0.0, "table", False): "5b3c64e0c6dbccf34fa73e1bfa86192d8df8644bb3880a49ec3f8cc51284e225",
    ("random-2", 0.0, "table", True): "77d488527e94462d773373a4ff04e6214fff64aac9455efd21b7ea25b986c738",
    ("random-2", 0.0, "csv", False): "325187f01b19fef32c16f7320a58c5c4785e33de9b50c793c6c4cbdc0562d2f0",
    ("random-2", 0.0, "csv", True): "b558e148092e489ba4f6198e1171f030519197862e84d368521bb5c5dbc1a5fc",
    ("random-2", 0.0, "json", False): "2ffd2ce78b98700aee9f7a609c3cb4ce68fba6938594c260ac7fb8e2a3bfb08e",
    ("random-2", 0.0, "json", True): "2cfcab5b0cee641a8edab6c3c1127ee79b435c0b0da2e02bbad36712898204f8",
    ("random-2", 0.7, "table", False): "0c6dccb86d0dc42a7621a1e9ed4e1711647ed0d20ea81209edabf52874d8af4f",
    ("random-2", 0.7, "table", True): "6e02885450cc8a4b8bdb161661c92a22395a575e6b7023f8a120bf77b0f29559",
    ("random-2", 0.7, "csv", False): "02754062d2a97eeafebeca13197d3054b2b7897d6f79604f8e17559f1cce8243",
    ("random-2", 0.7, "csv", True): "5dc403003e1dd8a5294e60660b81fc30fa132317d794fd734cddb88782838edf",
    ("random-2", 0.7, "json", False): "7d2eed80f9770acf7596d38256ab34b78d9991d9771bfd803432abc0081ea1ed",
    ("random-2", 0.7, "json", True): "c4578daf5bf2a9719ba523e85bc9ae62c1c5f5adfa14654ccf285d94516070f6",
}


def _inputs(name):
    if name == "kettle":
        return load_case_study()
    rng = random.Random(int(name.split("-")[1]))
    past = random_corpus(rng, "past", Provenance.PAST, 25)
    current = random_corpus(rng, "cur", Provenance.CURRENT, 25)
    return past, current, LexicalBackend()


@pytest.mark.parametrize("name", ["kettle", "random-1", "random-2"])
@pytest.mark.parametrize("threshold", [0.0, 0.7])
def test_report_bytes_match_pinned_digests(name, threshold):
    past, current, backend = _inputs(name)
    report = rank_current_problems(past, current, backend, threshold)
    for fmt in ("table", "csv", "json"):
        for summary in (False, True):
            text = render_report(report, fmt, summary)
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            assert digest == DIGESTS[name, threshold, fmt, summary], (fmt, summary)
