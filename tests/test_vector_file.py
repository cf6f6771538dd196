"""``load_word_vectors`` reads a file through numpy in one call when it can,
and line by line otherwise; either way the outcome is the line parser's."""

import tempfile
import warnings
from pathlib import Path
from unittest import mock

import hypothesis
import pytest
from hypothesis import strategies as st

from sapphire_novelty import WordVectorFormatError, load_word_vectors
from sapphire_novelty import vectors

WORDS = ["hot", "cold", "3", "2", "caf\u00e9", "x#y", 'q"t']
# Components the fast path takes, then those it leaves to the line parser.
FINITE = ["0", "1", "-0", "0.5", "-1.25", "1e3", "1E-5", ".5", "+2.", "0.1234", "3.141592653589793", "1e-400"]
ROUGH = ["1_0", "\uff11", "\u0663", "nan", "inf", "-Infinity", "1e400", "x", "0x1", "1,5"]
BLANKS = [" ", "\t", "  ", " \t ", "\xa0", "\x85", "\u2028", "\x0c", "\x0b", "\x1c", "\u3000"]


@st.composite
def vector_files(draw):
    """Vector-file text in any line ending, with odd blanks between and after
    components, blank lines and an optional header. A rough file may also hold
    bad or non-finite components, lines of another dimension, words without
    components, an interior header and duplicate words."""
    rough = draw(st.booleans())
    dimension = draw(st.integers(1, 4))
    components = st.sampled_from(FINITE + ROUGH if rough else FINITE)
    separator = st.sampled_from([" "] * 4 + BLANKS)
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["3 2", "20000 100", "1 \uff12", "1_0 2", "3", ""])))
    count = draw(st.integers(0, 6))
    for word in draw(st.lists(st.sampled_from(WORDS), min_size=count, max_size=count, unique=not rough)):
        kinds = ["vector"] * 6 + ["blank"] + (["header", "word only"] if rough else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", "\xa0", "\u2028"])))
        elif kind == "header":
            lines.append("3 2")
        else:
            size = 0 if kind == "word only" else dimension
            if kind == "vector" and rough:
                size += draw(st.sampled_from([0] * 8 + [-1, 1]))
            line = word + "".join(
                draw(separator) + component
                for component in draw(st.lists(components, min_size=size, max_size=size))
            )
            lines.append(line + draw(st.sampled_from(["", "", " ", "\t", "\xa0"])))
    endings = st.sampled_from(["\n", "\r\n", "\r"])
    return "".join(line + draw(endings) for line in lines) + draw(st.sampled_from(["", "\n"]))


def _outcome(path):
    """What a caller sees: the table bits or the error, and every warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            table = load_word_vectors(path)
        except WordVectorFormatError as error:
            result = ("error", str(error))
        else:
            result = ("table", [(word, table[word].tobytes()) for word in table])
    return result, [(w.category, str(w.message)) for w in caught]


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(content=vector_files())
def test_fast_path_matches_the_line_parser(content):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "vectors.txt"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(content)
        taken = []
        read_matrix = vectors._read_matrix

        def spy(lines):
            taken.append(read_matrix(lines))
            return taken[-1]

        with mock.patch.object(vectors, "_read_matrix", spy):
            outcome = _outcome(path)
        hypothesis.event("fast path" if taken[0] is not None else "line parser")
        with mock.patch.object(vectors, "_read_matrix", lambda lines: None):
            assert outcome == _outcome(path)


@pytest.mark.parametrize(
    "content, fast",
    [
        ("2 3\nhot 1 0 0\r\n\n\tcold 0\t1 0 \ncafé -0 .5 1e3\n", True),
        ("hot 1_0 0\ncold 0 1\n", False),  # Python's float reads underscores
        ("hot \uff11 0\ncold 0 1\n", False),  # and full-width digits
        ("hot 1 0\nhot 0 1\n", False),  # a duplicate word warns with its line
        ("hot 1 0\ncold 0 1 7\n", False),
        ("hot 1 nan\n", False),
    ],
)
def test_line_parser_runs_only_when_the_fast_path_fails(tmp_path, content, fast):
    path = tmp_path / "vectors.txt"
    path.write_bytes(content.encode("utf-8"))
    with mock.patch.object(vectors, "_read_lines", wraps=vectors._read_lines) as line_parser:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            try:
                load_word_vectors(path)
            except WordVectorFormatError:
                pass
    assert line_parser.called is not fast


@pytest.mark.parametrize(
    "content, kind",
    [
        ("", "error"),
        ("3 2\n", "error"),
        ("\n \n\t\n", "error"),
        ("hot 1 0\rcold 0 1\r", "table"),
        ("\ufeff2 2\nhot 1 0\ncold 0 1\n", "table"),
    ],
    ids=["empty", "header only", "blank only", "CR endings", "BOM and header"],
)
def test_streamed_edge_cases_match_the_line_parser(tmp_path, content, kind):
    """Files that give numpy no rows, or lines it must not see as one, load as
    the line parser reads them, with no warning from numpy."""
    path = tmp_path / "vectors.txt"
    path.write_bytes(content.encode("utf-8"))
    outcome, caught = _outcome(path)
    assert caught == []
    assert outcome[0] == kind
    with mock.patch.object(vectors, "_read_matrix", lambda lines: None):
        assert (outcome, caught) == _outcome(path)


LINE_TEXT = ["a", " ", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028", "\u2029", "\ufeff"]


@hypothesis.settings(deadline=None)
@hypothesis.given(content=st.lists(st.sampled_from(LINE_TEXT)).map("".join))
@hypothesis.example(content="a" * 8191 + "\r\nb")  # a line ending across the read chunks
@hypothesis.example(content="a" * 8192 + "\r\nb\r")
def test_iterating_a_file_gives_the_lines_of_read_split(content):
    """The fast path iterates the open file; the line parser splits its text
    at "\\n". Under universal newlines both see the same lines."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "vectors.txt"
        path.write_bytes(content.encode("utf-8"))
        with open(path, "r", encoding="utf-8-sig") as handle:
            iterated = list(handle)
        with open(path, "r", encoding="utf-8-sig") as handle:
            *ended, last = handle.read().split("\n")
    assert iterated == [line + "\n" for line in ended] + ([last] if last else [])
