import errno
import io
import json
import os
import sys
import warnings
from collections import Counter

import pytest

from sapphire_novelty import (
    OovWarning,
    rank_current_problems,
    render_csv,
    render_json,
    render_report,
    render_table,
)
from sapphire_novelty.cli import main
from sapphire_novelty.data import (
    current_corpus_path,
    fixture_similarities_path,
    load_case_study,
    past_corpus_path,
)


@pytest.fixture(scope="module")
def case_report():
    past, current, backend = load_case_study()
    return rank_current_problems(past, current, backend)


def assess_argv(fmt="table", out=None, command="assess", threshold=None):
    argv = [
        command,
        "--past", str(past_corpus_path()),
        "--current", str(current_corpus_path()),
        "--backend", "fixture",
        "--fixtures", str(fixture_similarities_path()),
        "--format", fmt,
    ]
    if out is not None:
        argv += ["--out", str(out)]
    if threshold is not None:
        argv += ["--threshold", str(threshold)]
    return argv


class TestRenderers:
    def test_table_reproduces_the_first_score_column(self, case_report):
        table = render_table(case_report)
        ps1_block = table.split("comparison with past problem PS1")[1]
        ps1_block = ps1_block.split("comparison with past problem PS2")[0]
        rows = {
            line.split("  ")[0]: line.split() for line in ps1_block.splitlines() if line.strip()
        }
        assert rows["Action"][1] == "0.000"
        assert rows["State Change"][2] == "0.686"
        assert rows["Phenomena"][1] == "0.519"
        assert rows["Effect"][1] == "0.000"
        assert rows["Input"][1] == "0.699"
        assert rows["oRgan"][1] == "0.796"
        assert rows["Parts"][1] == "0.613"
        assert rows["Avg. Novelty"][2] == "0.55"
        assert "Medium Novelty" in " ".join(rows["Novelty band"])

    def test_report_header_records_backend_and_threshold(self, case_report):
        table = render_table(case_report)
        assert "backend: fixture" in table
        assert "threshold: 0.7" in table

    def test_json_round_trips_full_precision(self, case_report):
        payload = json.loads(render_json(case_report))
        pair = next(
            p for p in payload["pairs"] if (p["past_id"], p["current_id"]) == ("PS1", "PS3")
        )
        assert pair["construct_novelty"]["state_change"] == 0.686
        assert pair["construct_similarity"]["state_change"] == 0.314
        assert pair["average_novelty"] == pytest.approx(3.313 / 6, abs=1e-12)
        assert pair["average_novelty_display"] == "0.55"
        assert pair["band"] == "medium"
        ranking = {entry["current_id"]: entry for entry in payload["ranking"]}
        assert ranking["PS5"]["min_novelty"] == pytest.approx(4.189 / 6, abs=1e-12)

    def test_all_formats_show_identical_display_scores(self, case_report):
        table = render_table(case_report)
        csv_text = render_csv(case_report)
        payload = json.loads(render_json(case_report))
        for pair in payload["pairs"]:
            for shown in pair["construct_novelty_display"].values():
                assert shown in table
                assert shown in csv_text
            if pair["average_novelty_display"] is not None:
                assert pair["average_novelty_display"] in table
                assert pair["average_novelty_display"] in csv_text

    def test_csv_carries_meta_grid_and_ranking(self, case_report):
        csv_text = render_csv(case_report)
        assert csv_text.startswith("backend,fixture\nthreshold,0.7\n")
        assert "Constructs,PS1-PS3,PS1-PS4,PS1-PS5,PS2-PS3,PS2-PS4,PS2-PS5" in csv_text
        assert "rank,current_id,min_novelty,band" in csv_text
        assert "1,PS5,0.70,High Novelty" in csv_text

    def test_unknown_format_rejected(self, case_report):
        with pytest.raises(ValueError, match="unknown report format: 'xml'"):
            render_report(case_report, "xml")

    def test_summary_only_drops_the_grids(self, case_report):
        summary = render_table(case_report, summary_only=True)
        assert "comparison with past problem" not in summary
        assert "ranking (most novel first)" in summary


class TestCmdAssess:
    def test_table_run_exits_zero(self, capsys):
        assert main(assess_argv()) == 0
        out = capsys.readouterr().out
        assert "Avg. Novelty" in out
        assert "1     PS5" in out

    def test_rank_is_summary_only(self, capsys):
        assert main(assess_argv(command="rank")) == 0
        out = capsys.readouterr().out
        assert "comparison with past problem" not in out
        assert "PS5" in out

    def test_out_flag_writes_the_report_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(assess_argv("json", out=out)) == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert [entry["current_id"] for entry in payload["ranking"]] == ["PS5", "PS4", "PS3"]

    def test_out_into_a_missing_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.txt"
        assert main(assess_argv(out=out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cannot write report: ")
        assert str(out) in captured.err
        assert not out.parent.exists()

    @pytest.mark.parametrize("method", ["write", "flush"])
    def test_a_full_stdout_exits_2(self, method, monkeypatch, capsys):
        """A failed write to stdout, at once or when a buffer is flushed, is
        an environment problem, as an unwritable ``--out`` is."""

        def full(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        stdout = io.StringIO()
        monkeypatch.setattr(stdout, method, full)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(assess_argv()) == 2
        assert capsys.readouterr().err == f"cannot write report: [Errno 28] {os.strerror(errno.ENOSPC)}\n"

    def test_two_runs_are_byte_identical(self, tmp_path):
        for fmt in ("table", "csv", "json"):
            first = tmp_path / f"one.{fmt}"
            second = tmp_path / f"two.{fmt}"
            assert main(assess_argv(fmt, out=first)) == 0
            assert main(assess_argv(fmt, out=second)) == 0
            assert first.read_bytes() == second.read_bytes()

    def test_missing_fixture_pair_exits_2_naming_the_pair(self, tmp_path, capsys):
        fixtures = tmp_path / "thin.tsv"
        fixtures.write_text("spilling of liquid\tspilling of liquid\t1.0\n", encoding="utf-8")
        argv = assess_argv()
        argv[argv.index("--fixtures") + 1] = str(fixtures)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "no pinned similarity" in err
        assert "Contained to leak body" in err

    def test_nonexistent_corpus_exits_2(self, tmp_path, capsys):
        argv = assess_argv()
        argv[argv.index("--past") + 1] = str(tmp_path / "missing.jsonl")
        assert main(argv) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_corpus_strict_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "A 1", "provenance": "past", "constructs": {}}\n', encoding="utf-8")
        argv = assess_argv() + ["--strict"]
        argv[argv.index("--past") + 1] = str(bad)
        assert main(argv) == 1
        assert "invalid corpus" in capsys.readouterr().err

    def test_corpus_not_utf8_strict_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"id": "A1", "provenance": "past", "constructs": {"action": "sp\xffill"}}\n')
        argv = assess_argv() + ["--strict"]
        argv[argv.index("--past") + 1] = str(bad)
        assert main(argv) == 1
        assert "invalid corpus" in capsys.readouterr().err

    def test_lenient_run_without_a_valid_past_record_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "A 1", "provenance": "past", "constructs": {}}\n', encoding="utf-8")
        argv = assess_argv()
        argv[argv.index("--past") + 1] = str(bad)
        with warnings.catch_warnings(record=True):
            assert main(argv) == 1
        assert f"past corpus {bad} contains no valid problems" in capsys.readouterr().err

    def test_identity_run_scores_zero_low_rank_one(self, tmp_path, capsys):
        record = {
            "id": "SAME",
            "label": "same",
            "provenance": "past",
            "source": "",
            "context": "",
            "constructs": {"action": "spilling of liquid", "parts": "body and lid"},
        }
        past = tmp_path / "past.jsonl"
        past.write_text(json.dumps(record) + "\n", encoding="utf-8")
        record_current = dict(record, provenance="current")
        current = tmp_path / "current.jsonl"
        current.write_text(json.dumps(record_current) + "\n", encoding="utf-8")
        argv = [
            "assess",
            "--past", str(past),
            "--current", str(current),
            "--backend", "lexical",
            "--format", "table",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0.00" in out
        assert "Low Novelty" in out
        assert "1     SAME" in out

    def test_unmatched_problems_reported_with_exit_zero(self, tmp_path, capsys):
        past = tmp_path / "past.jsonl"
        past.write_text(
            json.dumps(
                {
                    "id": "P1",
                    "label": "",
                    "provenance": "past",
                    "source": "",
                    "context": "",
                    "constructs": {"action": "alpha beta", "parts": "x y"},
                }
            )
            + "\n",
            encoding="utf-8",
        )
        current = tmp_path / "current.jsonl"
        current.write_text(
            json.dumps(
                {
                    "id": "C1",
                    "label": "",
                    "provenance": "current",
                    "source": "",
                    "context": "",
                    "constructs": {"action": "gamma delta", "parts": "x y"},
                }
            )
            + "\n",
            encoding="utf-8",
        )
        argv = [
            "assess",
            "--past", str(past),
            "--current", str(current),
            "--backend", "lexical",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "unmatched" in out
        assert "C1" in out

    def test_remote_backend_reads_endpoint_from_environment(
        self, embed_stub, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("SAPPHIRE_EMBED_URL", embed_stub.url)
        argv = [
            "assess",
            "--past", str(past_corpus_path()),
            "--current", str(current_corpus_path()),
            "--backend", "remote",
            "--format", "json",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "remote"

    def test_remote_backend_with_file_endpoint_exits_2(self, tmp_path, capsys):
        argv = assess_argv()
        argv[argv.index("--backend") + 1] = "remote"
        argv += ["--endpoint", (tmp_path / "vectors.json").as_uri()]
        assert main(argv) == 2
        assert "scheme must be http or https" in capsys.readouterr().err

    def test_remote_backend_without_endpoint_is_a_usage_error(self, monkeypatch):
        monkeypatch.delenv("SAPPHIRE_EMBED_URL", raising=False)
        argv = assess_argv()
        argv[argv.index("--backend") + 1] = "remote"
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    def test_threshold_out_of_range_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(assess_argv(threshold=1.5))
        assert excinfo.value.code == 2

    @staticmethod
    def oov_rank_argv(tmp_path, action, parts):
        """A ``rank`` over a two-word vocabulary; ``parts`` maps each role to
        its problems' Parts texts, and every problem's Action is ``action``."""
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("hot 1.0 0.0\ncold 0.0 1.0\n", encoding="utf-8")
        paths = {}
        for role, texts in parts.items():
            records = [
                {
                    "id": f"{role}{index}",
                    "label": "",
                    "provenance": role,
                    "source": "",
                    "context": "",
                    "constructs": {"action": action, "parts": text},
                }
                for index, text in enumerate(texts)
            ]
            paths[role] = tmp_path / f"{role}.jsonl"
            paths[role].write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")
        return [
            "rank",
            "--past", str(paths["past"]),
            "--current", str(paths["current"]),
            "--backend", "wordvec",
            "--vectors", str(vectors),
            "--threshold", "0",
        ]

    def test_lenient_run_warns_once_per_oov_text_and_scoring_call(self, tmp_path, capsys):
        parts = {"past": ["xyzzy", "xyzzy"], "current": ["hot", "plugh"]}
        assert main(self.oov_rank_argv(tmp_path, "xyzzy", parts)) == 0
        warned = Counter(capsys.readouterr().err.splitlines())
        # "xyzzy" is scored in the gate call (as the Action) and in the level
        # call (as past Parts): once in each, not once per comparison.
        assert warned == {
            "OovWarning: no in-vocabulary token among ['xyzzy']; returning the zero sentinel": 2,
            "OovWarning: no in-vocabulary token among ['plugh']; returning the zero sentinel": 1,
        }

    @pytest.mark.parametrize("strict", [False, True])
    def test_a_warning_is_one_stderr_line_without_a_source_location(self, strict, tmp_path, capsys):
        argv = self.oov_rank_argv(tmp_path, "hot", {"past": ["cold"], "current": ["plugh"]})
        assert main(argv + ["--strict"] * strict) == 0
        err = capsys.readouterr().err
        assert err == "OovWarning: no in-vocabulary token among ['plugh']; returning the zero sentinel\n"
        assert ".py:" not in err

    def test_wordvec_backend_requires_vectors_flag(self):
        argv = assess_argv()
        argv[argv.index("--backend") + 1] = "wordvec"
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    def test_fixture_backend_requires_fixtures_flag(self):
        argv = assess_argv()
        del argv[argv.index("--fixtures") : argv.index("--fixtures") + 2]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    def test_missing_vectors_file_exits_2(self, tmp_path, capsys):
        argv = assess_argv()
        argv[argv.index("--backend") + 1] = "wordvec"
        argv += ["--vectors", str(tmp_path / "missing.txt")]
        assert main(argv) == 2
        assert "cannot read backend data" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "backend, flag, content",
        [
            ("wordvec", "--vectors", "hot 1.0\ncold x\n"),
            ("fixture", "--fixtures", "a\tb\t0.5\na\tb\n"),
            # A byte that is not UTF-8 (0xff, written through surrogateescape).
            ("wordvec", "--vectors", "hot 1 0\nwat\udcff 0.3 0.4\n"),
            ("fixture", "--fixtures", "a\tb\t0.5\na\udcff\tb\t0.3\n"),
        ],
    )
    def test_malformed_backend_data_exits_1(self, backend, flag, content, tmp_path, capsys):
        data = tmp_path / "data.txt"
        data.write_text(content, encoding="utf-8", errors="surrogateescape")
        argv = assess_argv()
        argv[argv.index("--backend") + 1] = backend
        del argv[argv.index("--fixtures") : argv.index("--fixtures") + 2]
        argv += [flag, str(data)]
        assert main(argv) == 1
        assert "invalid backend data: line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, reason",
        [
            ("heat 1e308 1\nlid 1e308 -1\n", "a vector that is not finite: their sum overflows"),
            (
                "heat 1e200 1\nlid 1e200 -1\n",
                "a nonzero vector whose squared norm overflows or underflows",
            ),
            (
                "heat 1e-170 1e-170\nlid 1e-170 -1e-170\n",
                "a nonzero vector whose squared norm overflows or underflows",
            ),
        ],
        ids=["sum", "squared-norm-overflow", "squared-norm-underflow"],
    )
    def test_vectors_that_overflow_when_pooled_exit_1_naming_the_text(
        self, content, reason, tmp_path, capsys
    ):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text(content + "boil 1 0\n", encoding="utf-8")
        paths = []
        for role, effect in (("past", "heat lid"), ("current", "lid heat")):
            record = {"id": "P1", "provenance": role, "constructs": {"action": "boil", "effect": effect}}
            paths.append(tmp_path / f"{role}.jsonl")
            paths[-1].write_text(json.dumps(record) + "\n", encoding="utf-8")
        argv = ["assess", "--past", str(paths[0]), "--current", str(paths[1])]
        argv += ["--backend", "wordvec", "--vectors", str(vectors)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 1
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid backend data: the word vectors of 'heat lid' pool to {reason}\n"

    def test_vector_file_without_vectors_exits_1(self, tmp_path, capsys):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("3 2\n", encoding="utf-8")
        argv = assess_argv()
        argv[argv.index("--backend") + 1] = "wordvec"
        argv += ["--vectors", str(vectors)]
        assert main(argv) == 1
        assert "invalid backend data: no word vectors" in capsys.readouterr().err


def validate_record(problem_id="P1", **overrides):
    base = {
        "id": problem_id,
        "label": "",
        "provenance": "past",
        "source": "",
        "context": "",
        "constructs": {"action": "spill"},
    }
    base.update(overrides)
    return json.dumps(base)


EMPTY_ACTION = "constructs[action]: the Action construct is mandatory and must be non-empty"

# One file per finding kind: its lines, then the exact findings `validate` prints.
VALIDATE_FINDINGS = {
    "blank_interior_line": (
        [validate_record("A"), "", validate_record("B")],
        ["line 2: blank interior line"],
    ),
    "malformed_json": (
        [validate_record("A"), "{not json"],
        ["line 2: malformed JSON (Expecting property name enclosed in double quotes)"],
    ),
    "non_object_line": (["[1, 2]"], ["line 1: expected a JSON object, got list"]),
    "unknown_key": ([validate_record(extra="x")], ["line 1: unknown key(s) ['extra']"]),
    "bad_provenance": (
        [validate_record(provenance="historic")],
        ["line 1: provenance must be 'past' or 'current', got 'historic'"],
    ),
    "empty_action": (
        [validate_record(constructs={"action": "  "})],
        [f"line 1: {EMPTY_ACTION}"],
    ),
    "whitespace_in_id": (
        [validate_record("P 1")],
        ["line 1: id: must not contain whitespace: 'P 1'"],
    ),
    # A JSON escape of a lone surrogate is plain ASCII in the file, but the
    # text it reads as cannot be written back as UTF-8.
    "lone_surrogate": (
        [validate_record("P\ud800"), validate_record("P2", constructs={"action": "sp\udcffill"})],
        [
            "line 1: id: must be writable as UTF-8, but holds the lone surrogate '\\ud800'",
            "line 2: constructs[action]: must be writable as UTF-8, but holds the lone surrogate '\\udcff'",
        ],
    ),
    # Per-line findings come first, then duplicates, then the mixed-role finding;
    # an invalid record still counts as the first occurrence of its id.
    "duplicate_after_invalid_record": (
        [
            validate_record("A", constructs={"action": "  "}),
            validate_record("A"),
            "{not json",
            validate_record("B", provenance="current"),
        ],
        [
            f"line 1: {EMPTY_ACTION}",
            "line 3: malformed JSON (Expecting property name enclosed in double quotes)",
            "line 2: duplicate id 'A' (first on line 1)",
            "file mixes 'past' and 'current' provenance records",
        ],
    ),
}


class TestCmdValidate:
    @pytest.mark.parametrize("kind", sorted(VALIDATE_FINDINGS))
    def test_each_finding_kind_prints_exact_lines(self, kind, tmp_path, capsys):
        lines, findings = VALIDATE_FINDINGS[kind]
        path = tmp_path / f"{kind}.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        expected = f"{path}: INVALID\n" + "".join(f"  {finding}\n" for finding in findings)
        assert capsys.readouterr().out == expected

    def test_a_line_not_utf8_is_a_finding(self, tmp_path, capsys):
        path = tmp_path / "bytes.jsonl"
        path.write_bytes(validate_record("A").encode() + b"\n" + validate_record("B").encode().replace(b"spill", b"sp\xffill") + b"\n")
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().out == f"{path}: INVALID\n  line 2: not UTF-8 (byte 0xff)\n"

    def test_valid_files_exit_zero(self, capsys):
        code = main(["validate", str(past_corpus_path()), str(current_corpus_path())])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count(": ok") == 2

    def test_duplicate_ids_exit_one_and_name_the_id(self, tmp_path, capsys):
        path = tmp_path / "dup.jsonl"
        line = json.dumps(
            {
                "id": "PS1",
                "label": "",
                "provenance": "past",
                "source": "",
                "context": "",
                "constructs": {"action": "spill"},
            }
        )
        path.write_text(line + "\n" + line + "\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out
        assert "PS1" in out

    def test_mixed_provenance_is_a_violation(self, tmp_path, capsys):
        lines = [
            json.dumps(
                {
                    "id": f"P{i}",
                    "label": "",
                    "provenance": provenance,
                    "source": "",
                    "context": "",
                    "constructs": {"action": "spill"},
                }
            )
            for i, provenance in enumerate(["past", "current"])
        ]
        path = tmp_path / "mixed.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "mixes" in capsys.readouterr().out

    def test_nonexistent_path_exits_two(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "missing.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestCmdOscore:
    @pytest.mark.parametrize(
        ("n", "m", "expected"),
        [("2", "8", "0.7500"), ("0", "5", "1.0000"), ("5", "5", "0.0000")],
    )
    def test_prints_four_decimals(self, n, m, expected, capsys):
        assert main(["oscore", n, m]) == 0
        assert capsys.readouterr().out.strip() == expected

    @pytest.mark.parametrize(("n", "m"), [("3", "2"), ("1", "0"), ("-1", "4")])
    def test_invalid_counts_exit_one(self, n, m, capsys):
        assert main(["oscore", n, m]) == 1
        assert "invalid counts" in capsys.readouterr().err
