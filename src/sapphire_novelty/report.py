"""Rendering of novelty reports as text tables, CSV, and JSON.

The table mirrors the classic score-table layout: one grid per past problem,
one column per gated (past, current) pair, rows for the seven construct
levels followed by the average novelty and its band. Construct novelty is
shown at three decimals and averages at two (half-up); the JSON payload
additionally carries every score at full precision so nothing is lost to
display rounding. All three formats show identical display scores and are
byte-stable given the same inputs. The renderers walk each pair's
level-aligned score tuples, so a level a pair lacks costs nothing. The JSON
writer fills one %-template per distinct layout of a pair's levels, formats
each distinct nonzero score once per render, and joins the payload once.
Each render memoizes its displays in its own ``novelty._Memo``.
"""

from __future__ import annotations

import csv
import io
from itertools import groupby
from json import JSONEncoder
from json.encoder import encode_basestring
from operator import attrgetter

from .novelty import (
    NoveltyBand,
    NoveltyReport,
    PairAssessment,
    ProblemNovelty,
    _Memo,
    round_repr_half_up,
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
# The levels of a pair's similarity map, novelty map and average, which fix its JSON layout.
_Levels = tuple[ConstructLevel, ...]
_PairLayout = tuple[_Levels, _Levels, _Levels]


class _Reprs(dict):
    """Each score's ``float.__repr__``, made on its first lookup; one per render.

    A zero is never stored: 0.0 and -0.0 are equal keys with different reprs.
    """

    __slots__ = ()

    def __missing__(self, score: float) -> str:
        text = _float(score)
        if score:
            self[score] = text
        return text


def _displays(template: str, ndigits: int) -> _Memo:
    """``template % round_half_up(value, ndigits)`` of a float given by its repr,
    for one render.

    Keyed by the repr, not the value, because 0.0 and -0.0 are equal keys
    but display differently.
    """
    return _Memo(lambda text: template % round_repr_half_up(text, ndigits))


def _band_label(band: NoveltyBand | None) -> str:
    return f"{band.label} Novelty" if band is not None else "-"


def _pair_columns(report: NoveltyReport) -> list[PairAssessment]:
    """All gated pairs ordered by past id, then current id, as strings ("p10" before "p2")."""
    pairs = [a for entry in report.entries for a in entry.assessments]
    pairs.sort(key=attrgetter("past_id", "current_id"))
    return pairs


def _grid_rows(pairs: list[PairAssessment], fmt3: _Memo, fmt2: _Memo) -> list[list[str]]:
    """The score grid shared by the table and CSV renderers."""
    rows = [[level.label] for level in ConstructLevel]
    for assessment in pairs:
        cells = ["-"] * len(rows)
        novelty = assessment.construct_novelty
        for level, value in zip(novelty.levels, novelty.scores):
            cells[_ROWS[level]] = fmt3[_float(value)]
        for row, cell in zip(rows, cells):
            row.append(cell)
    return [
        ["Constructs"] + [f"{a.past_id}-{a.current_id}" for a in pairs],
        *rows,
        [_AVERAGE_ROW]
        + [
            fmt2[_float(a.average_novelty)] if a.average_novelty is not None else "-"
            for a in pairs
        ],
        [_BAND_ROW] + [_band_label(a.band) for a in pairs],
    ]


def _ranking_rows(report: NoveltyReport, fmt2: _Memo) -> list[list[str]]:
    rows = [["rank", "current_id", "min_novelty", "band"]]
    for entry in report.ranked:
        display = fmt2[_float(entry.min_novelty)]
        rows.append([str(entry.rank), entry.current_id, display, _band_label(entry.band)])
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
    fmt2 = _displays("%.2f", 2)
    if not summary_only:
        fmt3 = _displays("%.3f", 3)
        for past_id, subset in groupby(_pair_columns(report), key=attrgetter("past_id")):
            lines.append(f"comparison with past problem {past_id}")
            lines.append(_layout(_grid_rows(list(subset), fmt3, fmt2)))
            lines.append("")
    lines.append("ranking (most novel first)")
    if report.ranked:
        lines.append(_layout(_ranking_rows(report, fmt2)))
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
    fmt2 = _displays("%.2f", 2)
    if not summary_only:
        for row in _grid_rows(_pair_columns(report), _displays("%.3f", 3), fmt2):
            writer.writerow(row)
        writer.writerow([])
    for row in _ranking_rows(report, fmt2):
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


def _json_levels(levels: _Levels, entry: str, opening: str, closing: str) -> str:
    """A JSON block inside a pair with ``entry`` filled in with each level's key."""
    return _json_block([entry.format(level.key) for level in levels], opening, closing, "      ")


def _json_pair_template(layout: _PairLayout) -> str:
    """The %-template of one element of the report's "pairs" array, for records
    whose similarity map, novelty map and included levels have these levels.

    It is filled with the ids, the similarity texts, the novelty texts, the
    novelty displays, the average and its display, the band and the
    no-comparable flag, in that order, and ends with a comma.
    """
    similarity, novelty, included = layout
    scores = '\n        "{}": %s'
    return (
        "\n    {"
        '\n      "past_id": %s,'
        '\n      "current_id": %s,'
        '\n      "construct_similarity": ' + _json_levels(similarity, scores, "{", "}") + ","
        '\n      "construct_novelty": ' + _json_levels(novelty, scores, "{", "}") + ","
        '\n      "construct_novelty_display": ' + _json_levels(novelty, scores, "{", "}") + ","
        '\n      "included_levels": ' + _json_levels(included, '\n        "{}"', "[", "]") + ","
        '\n      "average_novelty": %s,'
        '\n      "average_novelty_display": %s,'
        '\n      "band": %s,'
        '\n      "no_comparable_constructs": %s'
        "\n    },"
    )


def _json_pairs(
    pairs: list[PairAssessment], reprs: _Reprs, display3: _Memo, display2: _Memo
) -> list[str]:
    """The elements of the report's "pairs" array, each followed by a comma but the last."""
    templates = _Memo(_json_pair_template)
    texts = reprs.__getitem__
    out = []
    for pair in pairs:
        similarity = pair.construct_similarity
        novelty = pair.construct_novelty
        novelty_texts = tuple(map(texts, novelty.scores))
        average = pair.average_novelty
        band = pair.band
        if average is None:
            average_text = average_display = "null"
        else:
            average_text = texts(average)
            average_display = display2[average_text]
        out.append(
            templates[similarity.levels, novelty.levels, pair.included_levels]
            % (
                encode_basestring(pair.past_id),
                encode_basestring(pair.current_id),
                *map(texts, similarity.scores),
                *novelty_texts,
                *map(display3.__getitem__, novelty_texts),
                average_text,
                average_display,
                "null" if band is None else _BANDS[band],
                _BOOLS[pair.no_comparable_constructs],
            )
        )
    if out:
        out[-1] = out[-1][:-1]
    return out


def _json_ranked(entry: ProblemNovelty, reprs: _Reprs, display2: _Memo) -> str:
    """One element of the report's "ranking" array."""
    min_text = reprs[entry.min_novelty]
    return (
        "\n    {"
        f'\n      "rank": {_scalar(entry.rank)},'
        f'\n      "current_id": {encode_basestring(entry.current_id)},'
        f'\n      "min_novelty": {min_text},'
        f'\n      "min_novelty_display": {display2[min_text]},'
        f'\n      "band": {_BANDS[entry.band]}'
        "\n    }"
    )


def render_json(report: NoveltyReport, summary_only: bool = False) -> str:
    """The report as JSON: the bytes of ``json.dumps(payload, ensure_ascii=False, indent=2)``.

    The payload holds the run's metadata, every gated pair (left out when
    ``summary_only``) with full-precision and display scores, the ranking
    and the unmatched ids. It is written straight from the report, key by
    key, with no intermediate dicts, and joined once.
    """
    reprs = _Reprs()
    display3 = _displays('"%.3f"', 3)
    display2 = _displays('"%.2f"', 2)
    parts = [
        f'{{\n  "backend": {_scalar(report.backend_kind)},'
        f'\n  "threshold": {_scalar(report.threshold)},'
        f'\n  "past_corpus": {_scalar(report.past_corpus)},'
        f'\n  "current_corpus": {_scalar(report.current_corpus)},'
    ]
    if not summary_only:
        pairs = _json_pairs(_pair_columns(report), reprs, display3, display2)
        parts += ['\n  "pairs": [', *pairs, "\n  ],"] if pairs else ['\n  "pairs": [],']
    ranking = [_json_ranked(entry, reprs, display2) for entry in report.ranked]
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
