"""Loading, saving, validating, and importing problem corpora.

On-disk format is UTF-8 JSON Lines: one problem object per line with the keys
``id``, ``label``, ``provenance`` ("past" | "current"), ``source``,
``context``, and ``constructs`` (an object mapping the seven canonical
construct keys to phrases; keys other than ``action`` may be absent).

Survey responses arrive as CSV and are imported as a current-role corpus.
Records from either source meet one rule set, the one that
``validate_corpus_file`` and ``problem_model.validate_corpus`` apply too
(``problem_model._corpus_findings``): a record's invariants, its provenance
against the corpus role, and an id that no earlier record holds. Strict mode
aborts at the first finding, naming its line (JSONL) or data row (CSV);
lenient mode skips the record with one warning per finding.
"""

from __future__ import annotations

import csv
import json
import warnings
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .problem_model import (
    CANONICAL_LEVEL_KEYS,
    ConstructLevel,
    ProblemCorpus,
    ProblemSapphire,
    Provenance,
    _corpus_findings,
    _not_utf8,
    validate_corpus,
)

__all__ = [
    "CorpusWarning",
    "CorpusFormatError",
    "load_corpus",
    "save_corpus",
    "import_survey_csv",
    "problem_to_record",
    "problem_from_record",
    "validate_corpus_file",
]

_RECORD_KEYS = frozenset(("id", "label", "provenance", "source", "context", "constructs"))

# Construct columns after action are optional in survey files.
_SURVEY_REQUIRED_COLUMNS = ("id", "label", "source", "action")

# What a record's "provenance" value and construct keys name.
_PROVENANCES = {provenance.value: provenance for provenance in Provenance}
_LEVELS = {level.key: level for level in ConstructLevel}


class CorpusWarning(UserWarning):
    """Recoverable corpus problems reported in lenient mode (and vacuous cases)."""


class CorpusFormatError(ValueError):
    """A corpus file that violates the schema; the message names line numbers."""


def problem_to_record(problem: ProblemSapphire) -> dict:
    """Serialize one problem to its JSONL object, keys in canonical order."""
    return {
        "id": problem.id,
        "label": problem.label,
        "provenance": problem.provenance.value,
        "source": problem.source,
        "context": problem.context,
        "constructs": {level.key: text for level, text in problem.constructs.items()},
    }


def problem_from_record(record: dict, *, path: str | Path, line_no: int, strict: bool) -> ProblemSapphire:
    """Build one problem from ``record``, the parsed object on line
    ``line_no`` of the JSONL file ``path``, enforcing the schema.

    Raises :class:`CorpusFormatError` naming the line for schema breaches; in
    lenient mode the breaches that have a safe reading (unknown keys) are
    warnings instead, naming the file and the line.
    """
    if not isinstance(record, dict):
        raise CorpusFormatError(f"line {line_no}: expected a JSON object, got {type(record).__name__}")

    unknown = sorted(record.keys() - _RECORD_KEYS)
    if unknown:
        message = f"line {line_no}: unknown key(s) {unknown}"
        if strict:
            raise CorpusFormatError(message)
        warnings.warn(f"{path}: {message} (ignored)", CorpusWarning)

    raw_provenance = record.get("provenance")
    try:
        provenance = _PROVENANCES[raw_provenance]
    except (KeyError, TypeError):  # TypeError: a value JSON decodes to a list or object
        raise CorpusFormatError(
            f"line {line_no}: provenance must be 'past' or 'current', got {raw_provenance!r}"
        ) from None

    raw_constructs = record.get("constructs", {})
    if not isinstance(raw_constructs, dict):
        raise CorpusFormatError(f"line {line_no}: 'constructs' must be an object")
    constructs: dict[ConstructLevel, str] = {}
    for key, text in raw_constructs.items():
        level = _LEVELS.get(key)
        if level is None:
            message = f"line {line_no}: unknown construct key {key!r}"
            if strict:
                raise CorpusFormatError(message)
            warnings.warn(f"{path}: {message} (ignored)", CorpusWarning)
            continue
        if not isinstance(text, str):
            raise CorpusFormatError(f"line {line_no}: construct {key!r} must be a string")
        constructs[level] = text

    for field_name in ("id", "label", "source", "context"):
        value = record.get(field_name, "")
        if not isinstance(value, str):
            raise CorpusFormatError(f"line {line_no}: {field_name!r} must be a string")

    return ProblemSapphire(
        id=record.get("id", ""),
        label=record.get("label", ""),
        provenance=provenance,
        source=record.get("source", ""),
        context=record.get("context", ""),
        constructs=constructs,
    )


def _read_records(path: Path, strict: bool) -> Iterator[tuple[int, ProblemSapphire | str]]:
    """Yield ``(line_no, problem)`` per record line, or ``(line_no, message)``
    for a line that is not a record; the message names the line.

    Blank lines after the last record (a trailing newline among them) are not
    findings; a blank interior line is, and so is a line holding a byte that
    is not UTF-8. ``strict`` is passed on to :func:`problem_from_record`.
    """
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as handle:
        lines = handle.read().split("\n")
    last = max((i for i, line in enumerate(lines, start=1) if line.strip()), default=0)
    for line_no, line in enumerate(lines[:last], start=1):
        if not line.strip():
            yield line_no, f"line {line_no}: blank interior line"
            continue
        if reason := _not_utf8(line):
            yield line_no, f"line {line_no}: {reason}"
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as error:
            # Besides syntax errors: an integer past Python's digit limit, or
            # nesting past the recursion limit.
            yield line_no, f"line {line_no}: malformed JSON ({getattr(error, 'msg', error)})"
            continue
        try:
            yield line_no, problem_from_record(record, path=path, line_no=line_no, strict=strict)
        except CorpusFormatError as error:
            yield line_no, str(error)


def _admit_records(
    items: Iterable[tuple[int, ProblemSapphire | str]],
    role: Provenance | None,
    where: str,
    report: Callable[[str], None],
) -> tuple[list[ProblemSapphire], int]:
    """The record policy of every corpus source: returns the problems that
    break no rule of :func:`_corpus_findings` and the last position read (0
    when there was none).

    ``items`` pairs a record's ``where`` number (``"line"`` or ``"row"``)
    with its problem, or with a message naming that number. Each finding, the
    message or a broken rule as ``f"{where} {number}: {violation}"``, goes to
    ``report`` in order, and its record is not kept.
    """
    problems: list[ProblemSapphire] = []
    number = 0
    for number, item, violations in _corpus_findings(items, role, f"{where} {{}}".format):
        if isinstance(item, str):
            report(item)
        elif violations:
            for violation in violations:
                report(f"{where} {number}: {violation}")
        else:
            problems.append(item)
    return problems, number


def _load(
    items: Iterable[tuple[int, ProblemSapphire | str]],
    path: Path,
    role: Provenance,
    strict: bool,
    where: str,
    empty: str,
) -> ProblemCorpus:
    """The corpus of the records of ``path`` that :func:`_admit_records`
    keeps, named after the file stem. Strict mode raises
    :class:`CorpusFormatError` at the first finding; lenient mode warns for
    each one that its record is skipped. A source without records warns
    ``empty``."""

    def report(finding: str) -> None:
        if strict:
            raise CorpusFormatError(f"{path}: {finding}")
        warnings.warn(f"{path}: {finding} (skipped)", CorpusWarning)

    problems, last = _admit_records(items, role, where, report)
    if not last:
        warnings.warn(f"{path}: {empty}", CorpusWarning)
    return ProblemCorpus(name=path.stem, role=role, problems=tuple(problems))


def load_corpus(path: str | Path, role: Provenance, strict: bool = True) -> ProblemCorpus:
    """Load a JSONL corpus file; the corpus takes its name from the file stem.

    Every line is parsed and checked by the corpus rules: each record's
    invariants, its provenance against ``role``, and an id no earlier line
    holds. Strict mode raises :class:`CorpusFormatError` naming the offending
    line; lenient mode skips bad records with a :class:`CorpusWarning` per
    finding. An empty file yields an empty corpus with a warning.
    """
    path = Path(path)
    return _load(_read_records(path, strict), path, role, strict, "line", "empty corpus file")


def save_corpus(corpus: ProblemCorpus, path: str | Path) -> None:
    """Write one JSON object per line, in corpus order, canonical key order.

    The corpus must be valid; a strict reload of the written file reproduces
    the corpus field-for-field (load names the corpus after the file stem).
    """
    violations = validate_corpus(corpus)
    if violations:
        joined = "; ".join(str(v) for v in violations)
        raise ValueError(f"refusing to save an invalid corpus: {joined}")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for problem in corpus.problems:
            handle.write(json.dumps(problem_to_record(problem), ensure_ascii=False))
            handle.write("\n")


def import_survey_csv(
    path: str | Path, context: str, strict: bool = True
) -> ProblemCorpus:
    """Import survey responses (CSV) as a current-role corpus.

    The header row must carry ``id``, ``label``, ``source`` and ``action``;
    the remaining construct columns are optional. A column that is read may
    appear only once, while a blank or unknown column, repeated or not, is
    ignored with a warning. Cells are trimmed and blank rows skipped. Empty
    construct cells become absent levels; an empty id cell auto-generates
    ``CUR-<row>`` from the 1-based data row number. Each row then meets the
    record policy of :func:`load_corpus`, with errors and warnings naming
    the data row.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise CorpusFormatError(f"{path}: missing header row") from None
        except csv.Error as error:
            raise CorpusFormatError(f"{path}: unreadable header row ({error})") from None
        if reason := _not_utf8(",".join(header)):
            raise CorpusFormatError(f"{path}: unreadable header row ({reason})")
        header = [column.strip() for column in header]
        missing = [column for column in _SURVEY_REQUIRED_COLUMNS if column not in header]
        if missing:
            raise CorpusFormatError(f"{path}: header lacks required column(s) {missing}")
        known = {*_SURVEY_REQUIRED_COLUMNS, *CANONICAL_LEVEL_KEYS}
        repeated = [
            column for column in dict.fromkeys(header) if column in known and header.count(column) > 1
        ]
        if repeated:
            raise CorpusFormatError(f"{path}: unreadable header row (repeated column(s) {repeated})")
        unknown = [column for column in header if column not in known]
        if unknown:
            warnings.warn(f"{path}: ignoring unknown column(s) {unknown}", CorpusWarning)
        position = {column: i for i, column in enumerate(header)}

        items = _survey_items(reader, position, context)
        return _load(items, path, Provenance.CURRENT, strict, "row", "survey file contains no data rows")


def _survey_items(
    reader: Iterator[list[str]], position: dict[str, int], context: str
) -> Iterator[tuple[int, ProblemSapphire | str]]:
    """Each non-blank data row's number and problem, or a message naming a row
    that the csv module cannot read (a field past its size limit) or that
    holds a byte that is not UTF-8; reading goes on at the next line."""
    row_no = 0
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as error:
            row_no += 1
            yield row_no, f"row {row_no}: unreadable CSV ({error})"
            continue
        if any(cell.strip() for cell in row):
            row_no += 1
            if reason := _not_utf8(",".join(row)):
                yield row_no, f"row {row_no}: unreadable CSV ({reason})"
            else:
                yield row_no, _survey_problem(row, position, row_no, context)


def _survey_problem(
    row: list[str], position: dict[str, int], row_no: int, context: str
) -> ProblemSapphire:
    cells = {column: row[i].strip() for column, i in position.items() if i < len(row)}
    return ProblemSapphire(
        id=cells.get("id") or f"CUR-{row_no}",
        label=cells.get("label", ""),
        provenance=Provenance.CURRENT,
        source=cells.get("source", ""),
        context=context,
        constructs={level: cells[level.key] for level in ConstructLevel if cells.get(level.key)},
    )


def validate_corpus_file(path: str | Path) -> list[str]:
    """Strictly check one corpus file and return every finding, in line order.

    The findings are those a strict :func:`load_corpus` raises the first of,
    worded the same way; the corpus role is that of the first record that
    parses, so each record of the other provenance is a finding. Used by the
    CLI's ``validate`` command, which wants the full list rather than a
    first-error abort.
    """
    findings: list[str] = []
    _admit_records(_read_records(Path(path), strict=True), None, "line", findings.append)
    return findings
