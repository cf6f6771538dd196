"""Rendering of novelty reports as text tables, CSV, and JSON.

The table mirrors the classic score-table layout: one grid per past problem,
one column per gated (past, current) pair, rows for the seven construct
levels followed by the average novelty and its band. Construct novelty is
shown at three decimals and averages at two (half-up); the JSON payload
additionally carries every score at full precision so nothing is lost to
display rounding. All three formats show identical display scores and are
byte-stable given the same inputs. The renderers walk each pair's
level-aligned score tuples, so a level a pair lacks costs nothing, and lay
out each distinct set of levels once per render.
"""

from __future__ import annotations

import csv
import io
from functools import cache
from itertools import groupby
from json import JSONEncoder
from json.encoder import encode_basestring
from operator import attrgetter
from typing import Callable

from .novelty import (
    NoveltyBand,
    NoveltyReport,
    PairAssessment,
    ProblemNovelty,
    round_half_up,
)
from .problem_model import ConstructLevel

__all__ = [
    "render_table",
    "render_csv",
    "render_json",
    "render_report",
]

_AVERAGE_ROW = "Avg. Novelty"
_BAND_ROW = "Novelty band"

# JSON leaves, encoded as json.dumps(ensure_ascii=False) encodes them; scores are
# finite floats, which json.dumps writes with float.__repr__.
_float = float.__repr__
_scalar = JSONEncoder(ensure_ascii=False).encode
_BOOLS = ("false", "true")
_BANDS = {band: encode_basestring(band.value) for band in NoveltyBand}
# Each level's row in the score grid.
_ROWS = {level: row for row, level in enumerate(ConstructLevel)}
# Per-render caches: a score's display text from its repr, and a layout from a tuple of levels.
_Display = Callable[[str], str]
_Levels = Callable[[tuple[ConstructLevel, ...]], str]


def _fmt3(value: float) -> str:
    return f"{round_half_up(value, 3):.3f}"


def _fmt2(value: float) -> str:
    return f"{round_half_up(value, 2):.2f}"


def _displays(fmt: Callable[[float], str]) -> _Display:
    """``fmt`` of a float given by its repr, cached for one render.

    Keyed by the repr, not the value, because 0.0 and -0.0 are equal keys
    but display differently.
    """
    return cache(lambda text: fmt(float(text)))


def _band_label(band: NoveltyBand | None) -> str:
    return f"{band.label} Novelty" if band is not None else "-"


def _pair_columns(report: NoveltyReport) -> list[PairAssessment]:
    """All gated pairs ordered by past id, then current id, as strings ("p10" before "p2")."""
    pairs = [a for entry in report.entries for a in entry.assessments]
    pairs.sort(key=lambda a: (a.past_id, a.current_id))
    return pairs


def _grid_rows(pairs: list[PairAssessment], fmt3: _Display, fmt2: _Display) -> list[list[str]]:
    """The score grid shared by the table and CSV renderers."""
    rows = [[level.label] for level in ConstructLevel]
    for assessment in pairs:
        cells = ["-"] * len(rows)
        novelty = assessment.construct_novelty
        for level, value in zip(novelty.levels, novelty.scores):
            cells[_ROWS[level]] = fmt3(_float(value))
        for row, cell in zip(rows, cells):
            row.append(cell)
    return [
        ["Constructs"] + [f"{a.past_id}-{a.current_id}" for a in pairs],
        *rows,
        [_AVERAGE_ROW]
        + [
            fmt2(_float(a.average_novelty)) if a.average_novelty is not None else "-"
            for a in pairs
        ],
        [_BAND_ROW] + [_band_label(a.band) for a in pairs],
    ]


def _ranking_rows(report: NoveltyReport) -> list[list[str]]:
    rows = [["rank", "current_id", "min_novelty", "band"]]
    for entry in report.ranked:
        rows.append(
            [str(entry.rank), entry.current_id, _fmt2(entry.min_novelty), _band_label(entry.band)]
        )
    return rows


def _layout(rows: list[list[str]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return "\n".join(lines)


def render_table(report: NoveltyReport, summary_only: bool = False) -> str:
    """Human-readable report; ``summary_only`` drops the per-pair grids."""
    lines = [
        "novelty assessment report",
        f"backend: {report.backend_kind}  threshold: {report.threshold}",
        f"past corpus: {report.past_corpus}  current corpus: {report.current_corpus}",
        "",
    ]
    if not summary_only:
        fmt3, fmt2 = _displays(_fmt3), _displays(_fmt2)
        for past_id, subset in groupby(_pair_columns(report), key=attrgetter("past_id")):
            lines.append(f"comparison with past problem {past_id}")
            lines.append(_layout(_grid_rows(list(subset), fmt3, fmt2)))
            lines.append("")
    lines.append("ranking (most novel first)")
    if report.ranked:
        lines.append(_layout(_ranking_rows(report)))
    else:
        lines.append("(no current problem passed the action gate)")
    if report.unmatched:
        lines.append("")
        lines.append("unmatched (no past problem passed the action gate)")
        for entry in report.unmatched:
            lines.append(f"  {entry.current_id}")
    lines.append("")
    return "\n".join(lines)


def render_csv(report: NoveltyReport, summary_only: bool = False) -> str:
    """CSV report: meta rows, then the score grid, a blank line, the ranking."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["backend", report.backend_kind])
    writer.writerow(["threshold", report.threshold])
    writer.writerow(["past_corpus", report.past_corpus])
    writer.writerow(["current_corpus", report.current_corpus])
    writer.writerow([])
    if not summary_only:
        for row in _grid_rows(_pair_columns(report), _displays(_fmt3), _displays(_fmt2)):
            writer.writerow(row)
        writer.writerow([])
    for row in _ranking_rows(report):
        writer.writerow(row)
    if report.unmatched:
        writer.writerow([])
        writer.writerow(["unmatched"])
        for entry in report.unmatched:
            writer.writerow([entry.current_id])
    return buffer.getvalue()


def _json_block(entries: list[str], opening: str, closing: str, indent: str) -> str:
    """A JSON array or object from its encoded entries, laid out as ``indent=2`` lays it out."""
    if not entries:
        return opening + closing
    return opening + ",".join(entries) + "\n" + indent + closing


def _json_levels(
    levels: tuple[ConstructLevel, ...], entry: str, opening: str, closing: str
) -> str:
    """A JSON block inside a pair with ``entry`` filled in with each level's key."""
    return _json_block([entry.format(level.key) for level in levels], opening, closing, "      ")


def _json_layouts() -> tuple[_Levels, _Levels]:
    """Functions of a tuple of levels, cached for one render: the %-template of
    a pair's score map over those levels, and their "included_levels" array."""
    maps = cache(lambda levels: _json_levels(levels, '\n        "{}": %s', "{", "}"))
    included = cache(lambda levels: _json_levels(levels, '\n        "{}"', "[", "]"))
    return maps, included


def _json_pair(
    assessment: PairAssessment, maps: _Levels, included: _Levels, display3: _Display, display2: _Display
) -> str:
    """One element of the report's "pairs" array."""
    similarity = assessment.construct_similarity
    novelty = assessment.construct_novelty
    novelty_map = maps(novelty.levels)
    novelty_texts = tuple(map(_float, novelty.scores))
    average = assessment.average_novelty
    average_text = "null" if average is None else _float(average)
    band = assessment.band
    return (
        "\n    {"
        f'\n      "past_id": {encode_basestring(assessment.past_id)},'
        f'\n      "current_id": {encode_basestring(assessment.current_id)},'
        f'\n      "construct_similarity": '
        f"{maps(similarity.levels) % tuple(map(_float, similarity.scores))},"
        f'\n      "construct_novelty": {novelty_map % novelty_texts},'
        f'\n      "construct_novelty_display": '
        f"{novelty_map % tuple(map(display3, novelty_texts))},"
        f'\n      "included_levels": {included(assessment.included_levels)},'
        f'\n      "average_novelty": {average_text},'
        f'\n      "average_novelty_display": '
        f'{"null" if average is None else display2(average_text)},'
        f'\n      "band": {"null" if band is None else _BANDS[band]},'
        f'\n      "no_comparable_constructs": {_BOOLS[assessment.no_comparable_constructs]}'
        "\n    }"
    )


def _json_ranked(entry: ProblemNovelty, display2: _Display) -> str:
    """One element of the report's "ranking" array."""
    min_text = _float(entry.min_novelty)
    return (
        "\n    {"
        f'\n      "rank": {_scalar(entry.rank)},'
        f'\n      "current_id": {encode_basestring(entry.current_id)},'
        f'\n      "min_novelty": {min_text},'
        f'\n      "min_novelty_display": {display2(min_text)},'
        f'\n      "band": {_BANDS[entry.band]}'
        "\n    }"
    )


def render_json(report: NoveltyReport, summary_only: bool = False) -> str:
    """The report as JSON: the bytes of ``json.dumps(payload, ensure_ascii=False, indent=2)``.

    The payload holds the run's metadata, every gated pair (left out when
    ``summary_only``) with full-precision and display scores, the ranking
    and the unmatched ids. It is written straight from the report, key by
    key, with no intermediate dicts.
    """
    display3 = _displays(lambda value: f'"{_fmt3(value)}"')
    display2 = _displays(lambda value: f'"{_fmt2(value)}"')
    parts = [
        f'{{\n  "backend": {_scalar(report.backend_kind)},'
        f'\n  "threshold": {_scalar(report.threshold)},'
        f'\n  "past_corpus": {_scalar(report.past_corpus)},'
        f'\n  "current_corpus": {_scalar(report.current_corpus)},'
    ]
    if not summary_only:
        maps, included = _json_layouts()
        pairs = [_json_pair(a, maps, included, display3, display2) for a in _pair_columns(report)]
        parts += ['\n  "pairs": ', _json_block(pairs, "[", "]", "  "), ","]
    ranking = [_json_ranked(entry, display2) for entry in report.ranked]
    unmatched = ["\n    " + encode_basestring(entry.current_id) for entry in report.unmatched]
    parts.append('\n  "ranking": ' + _json_block(ranking, "[", "]", "  ") + ",")
    parts.append('\n  "unmatched": ' + _json_block(unmatched, "[", "]", "  ") + "\n}\n")
    return "".join(parts)


def render_report(report: NoveltyReport, fmt: str, summary_only: bool = False) -> str:
    if fmt == "table":
        return render_table(report, summary_only)
    if fmt == "csv":
        return render_csv(report, summary_only)
    if fmt == "json":
        return render_json(report, summary_only)
    raise ValueError(f"unknown report format: {fmt!r}")
