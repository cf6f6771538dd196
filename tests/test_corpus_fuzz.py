"""Any JSONL or survey CSV file, UTF-8 or not: the loaders raise only
``CorpusFormatError`` in strict mode; in lenient mode they keep the valid records and skip the rest
with a ``CorpusWarning``. Only a survey file without a usable header row fails
in lenient mode too: it has no records to skip."""

import json
import tempfile
import warnings
from pathlib import Path

import hypothesis
import pytest
from hypothesis import strategies as st

from sapphire_novelty import (
    CorpusFormatError,
    CorpusWarning,
    Provenance,
    import_survey_csv,
    load_corpus,
    save_corpus,
    validate_problem,
)
from sapphire_novelty.corpus_store import _read_records, validate_corpus_file
from sapphire_novelty.problem_model import CANONICAL_LEVEL_KEYS

RECORD_KEYS = ["id", "label", "provenance", "source", "context", "constructs", "extra"]
# Inputs that Python's parsers refuse with their own exceptions: an integer
# past the digit limit, nesting past the recursion limit, a CSV field past
# the csv module's size limit.
HUGE_INTEGER = "1" * 5000
DEEP_NESTING = "[" * 100_000
HUGE_FIELD = "x" * 140_000

# Any character, lone surrogates included and drawn often: a JSON escape such
# as "\udcff" reads as one, and a file cannot hold one as UTF-8.
characters = st.one_of(st.characters(), st.characters(categories=["Cs"]))


def texts(max_size=None):
    return st.text(characters, max_size=max_size)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | texts(6),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(texts(4), children, max_size=3),
    max_leaves=6,
)
ids = st.sampled_from(["P1", "P2", "R 1", "", " ", "P\ud800"])
# Bytes that are not UTF-8 on their own: a stray continuation byte, a lead
# byte without its continuation, an encoded surrogate, and 0xff.
NOT_UTF8 = [b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xff", b"caf\xe9"]
raw_bytes = st.one_of(st.binary(max_size=8), st.sampled_from(NOT_UTF8))


def _utf8(text):
    """``text`` as UTF-8, a lone surrogate as the three bytes that are not UTF-8."""
    return text.encode("utf-8", "surrogatepass")

phrases = st.one_of(st.sampled_from(["spill", " ", "", "hot lid", "sp\udcffill"]), texts(6))


@st.composite
def records(draw):
    record = {}
    for key in draw(st.lists(st.sampled_from(RECORD_KEYS), unique=True)):
        if key == "constructs":
            keys = st.sampled_from([*CANONICAL_LEVEL_KEYS, "bogus"])
            value = draw(st.one_of(st.dictionaries(keys, st.one_of(phrases, json_values), max_size=4), json_values))
        elif key == "provenance":
            value = draw(st.one_of(st.sampled_from(["past", "current"]), json_values))
        elif key == "id":
            value = draw(st.one_of(ids, json_values))
        else:
            value = draw(st.one_of(phrases, json_values))
        record[key] = value
    return record


@st.composite
def plain_records(draw):
    """A record that is valid unless one of its drawn texts is not."""
    role = draw(st.sampled_from(["past", "current"]))
    return {"id": draw(ids), "label": draw(phrases), "provenance": role, "constructs": {"action": draw(phrases)}}


@st.composite
def bad_records(draw):
    """A record line with bytes that are not UTF-8 in it: in a string of an
    otherwise valid record, or anywhere in an arbitrary one."""
    bad = draw(raw_bytes)
    if draw(st.booleans()):
        record = {"id": draw(ids), "provenance": draw(st.sampled_from(["past", "current"])), "constructs": {"action": "spill"}}
        return _utf8(json.dumps(record)).replace(b"spill", b"sp" + bad + b"ill")
    line = _utf8(json.dumps(draw(records()), ensure_ascii=False))
    at = draw(st.integers(0, len(line)))
    return line[:at] + bad + line[at:]


jsonl_lines = st.one_of(
    records().map(json.dumps).map(_utf8),
    plain_records().map(json.dumps).map(_utf8),
    records().map(lambda record: json.dumps(record)[:-1]).map(_utf8),
    records().map(lambda record: json.dumps(record, ensure_ascii=False)).map(_utf8),
    texts(20).map(_utf8),
    st.sampled_from(["", " ", "[]", "null", HUGE_INTEGER, '{"id": ' + HUGE_INTEGER + "}", DEEP_NESTING]).map(_utf8),
    raw_bytes,
    bad_records(),
)


@st.composite
def jsonl_files(draw):
    ending = draw(st.sampled_from([b"\n", b"\r\n"]))
    return ending.join(draw(st.lists(jsonl_lines, max_size=6))) + draw(st.sampled_from([b"", ending]))


cells = st.one_of(
    texts(8).map(_utf8),
    st.sampled_from(["", " ", "P1", "R 1", "spill", '"', '""', '"a,b"', '"q"x', '"line\nbreak"', HUGE_FIELD]).map(_utf8),
    raw_bytes,
)
REQUIRED_COLUMNS = [_utf8(column) for column in ("id", "label", "source", "action")]
columns = st.one_of(
    st.sampled_from([*REQUIRED_COLUMNS, b"effect", b"parts", b"notes", b" action ", b'"id"', _utf8(HUGE_FIELD)]),
    raw_bytes,
)


@st.composite
def survey_files(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.one_of(texts().map(_utf8), st.binary()))
    header = draw(st.lists(columns, max_size=4))
    if draw(st.integers(0, 4)):  # most headers are complete, so the rows are read
        header = draw(st.permutations(header + REQUIRED_COLUMNS))
    rows = draw(st.lists(st.lists(cells, max_size=len(header) + 1), max_size=6))
    ending = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    return ending.join(b",".join(row) for row in [header, *rows]) + draw(st.sampled_from([b"", ending]))


def _load(reader, path, strict):
    """The corpus or the error, and every warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = reader(path, strict)
        except CorpusFormatError as error:
            result = error
    assert all(issubclass(w.category, CorpusWarning) for w in caught), [str(w.message) for w in caught]
    return result, [str(w.message) for w in caught]


def _check(reader, content, role, header_errors):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "corpus.txt"
        path.write_bytes(content)
        strict, _ = _load(reader, path, True)
        lenient, skipped = _load(reader, path, False)
        if isinstance(lenient, CorpusFormatError):
            assert header_errors and any(phrase in str(lenient) for phrase in header_errors), lenient
            assert isinstance(strict, CorpusFormatError)
            return
        for problem in lenient:
            assert not validate_problem(problem) and problem.provenance is role
        assert len({problem.id for problem in lenient}) == len(lenient)
        if lenient.problems:  # whole UTF-8 text, so they save and reload unchanged
            save_corpus(lenient, Path(directory) / "saved.jsonl")
            assert load_corpus(Path(directory) / "saved.jsonl", role).problems == lenient.problems
    if not isinstance(strict, CorpusFormatError):
        assert strict.problems == lenient.problems
        assert not any(message.endswith("(skipped)") for message in skipped)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(content=jsonl_files(), role=st.sampled_from(Provenance))
def test_jsonl_loader_fails_only_with_corpus_errors(content, role):
    _check(lambda path, strict: load_corpus(path, role, strict=strict), content, role, ())


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(content=survey_files())
def test_survey_importer_fails_only_with_corpus_errors(content):
    _check(
        lambda path, strict: import_survey_csv(path, "kettle", strict=strict),
        content,
        Provenance.CURRENT,
        ("missing header row", "header lacks required column(s)", "unreadable header row"),
    )


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(content=jsonl_files())
def test_validate_finds_nothing_exactly_when_a_strict_load_succeeds(content):
    """``validate`` and strict load apply one rule set, in one wording: with
    the role of the first record that parses, a strict load raises the first
    finding that ``validate`` lists, word for word, or succeeds when it lists
    none."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "corpus.jsonl"
        path.write_bytes(content)
        findings = validate_corpus_file(path)
        first = next((item for _, item in _read_records(path, strict=True) if not isinstance(item, str)), None)
        role = first.provenance if first else Provenance.PAST
        strict, _ = _load(lambda path, strict: load_corpus(path, role, strict=strict), path, True)
    if findings:
        assert isinstance(strict, CorpusFormatError)
        assert str(strict) == f"{path}: {findings[0]}", findings
    else:
        assert not isinstance(strict, CorpusFormatError), strict


class TestInputsThePythonParsersRefuse:
    """Each is one bad record: strict mode names it, lenient mode skips it."""

    def _write(self, tmp_path, name, lines):
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("bad", [HUGE_INTEGER, DEEP_NESTING], ids=["huge-integer", "deep-nesting"])
    def test_jsonl_line(self, tmp_path, bad):
        good = json.dumps({"id": "P1", "provenance": "past", "constructs": {"action": "spill"}})
        path = self._write(tmp_path, "past.jsonl", [good, bad])
        with pytest.raises(CorpusFormatError, match=r"line 2: malformed JSON \("):
            load_corpus(path, Provenance.PAST)
        with pytest.warns(CorpusWarning, match=r"line 2: malformed JSON .*\(skipped\)$"):
            corpus = load_corpus(path, Provenance.PAST, strict=False)
        assert [problem.id for problem in corpus] == ["P1"]

    def test_survey_row(self, tmp_path):
        path = self._write(tmp_path, "survey.csv", ["id,label,source,action", "R1,a,s,spill", f"R2,{HUGE_FIELD},s,spill", "R3,c,s,leak"])
        with pytest.raises(CorpusFormatError, match=r"row 2: unreadable CSV \(field larger than field limit"):
            import_survey_csv(path, "kettle")
        with pytest.warns(CorpusWarning, match=r"row 2: unreadable CSV .*\(skipped\)$"):
            corpus = import_survey_csv(path, "kettle", strict=False)
        assert [problem.id for problem in corpus] == ["R1", "R3"]

    def test_survey_header(self, tmp_path):
        path = self._write(tmp_path, "survey.csv", [f"id,label,source,action,{HUGE_FIELD}", "R1,a,s,spill"])
        for strict in (True, False):
            with pytest.raises(CorpusFormatError, match=r"unreadable header row \(field larger than field limit"):
                import_survey_csv(path, "kettle", strict=strict)

    def test_jsonl_line_not_utf8(self, tmp_path):
        good = json.dumps({"id": "P1", "provenance": "past", "constructs": {"action": "spill"}})
        path = tmp_path / "past.jsonl"
        path.write_bytes(f"{good}\n".encode() + b'{"id": "P2", "provenance": "past", "constructs": {"action": "sp\xffill"}}\n')
        with pytest.raises(CorpusFormatError, match=r"line 2: not UTF-8 \(byte 0xff\)$"):
            load_corpus(path, Provenance.PAST)
        with pytest.warns(CorpusWarning, match=r"line 2: not UTF-8 \(byte 0xff\) \(skipped\)$"):
            corpus = load_corpus(path, Provenance.PAST, strict=False)
        assert [problem.id for problem in corpus] == ["P1"]
        assert validate_corpus_file(path) == ["line 2: not UTF-8 (byte 0xff)"]

    def test_survey_row_not_utf8(self, tmp_path):
        path = tmp_path / "survey.csv"
        path.write_bytes(b"id,label,source,action\nR1,a,s,spill\nR2,caf\xe9,s,spill\nR3,c,s,leak\n")
        with pytest.raises(CorpusFormatError, match=r"row 2: unreadable CSV \(not UTF-8 \(byte 0xe9\)\)$"):
            import_survey_csv(path, "kettle")
        with pytest.warns(CorpusWarning, match=r"row 2: unreadable CSV \(not UTF-8 \(byte 0xe9\)\) \(skipped\)$"):
            corpus = import_survey_csv(path, "kettle", strict=False)
        assert [problem.id for problem in corpus] == ["R1", "R3"]

    def test_survey_header_not_utf8(self, tmp_path):
        path = tmp_path / "survey.csv"
        path.write_bytes(b"id,label,source,action,\xffnotes\nR1,a,s,spill\n")
        for strict in (True, False):
            with pytest.raises(CorpusFormatError, match=r"unreadable header row \(not UTF-8 \(byte 0xff\)\)$"):
                import_survey_csv(path, "kettle", strict=strict)
