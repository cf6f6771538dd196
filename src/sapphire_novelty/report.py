"""Rendering of novelty reports as text tables, CSV, and JSON.

The table mirrors the classic score-table layout: one grid per past problem,
one column per gated (past, current) pair, rows for the seven construct
levels followed by the average novelty and its band. Construct novelty is
shown at three decimals and averages at two (half-up); the JSON payload
additionally carries every score at full precision so nothing is lost to
display rounding. All three formats show identical display scores and are
byte-stable given the same inputs. The renderers walk each pair's
level-aligned score tuples, so a level a pair lacks costs nothing. The JSON
writer lets ``json.dumps`` lay out everything but the pairs. Each distinct
layout of a pair's levels gives one list of pieces, made by ``json.dumps`` and
split at each ``null``; each pair appends those pieces, interleaved with its
value texts, to one list that is joined once with the rest of the report, so
no string is built per pair. Each distinct id is encoded and each distinct
nonzero score is formatted once per render. Each render memoizes its
layouts, ids and displays in its own ``novelty._Memo``.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import groupby
from json.encoder import encode_basestring
from operator import attrgetter

from .novelty import (
    NoveltyBand,
    NoveltyReport,
    PairAssessment,
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
_BOOLS = ("false", "true")
_BANDS = {band: encode_basestring(band.value) for band in NoveltyBand}
# Each level's row in the score grid.
_ROWS = {level: row for row, level in enumerate(ConstructLevel)}


class _Reprs(dict):
    """Each score's ``float.__repr__``, made on its first lookup; one per render.

    A zero is never stored: 0.0 and -0.0 are equal keys with different reprs.
    Its text is one of two shared strings, so the pieces a render holds until
    its join keep no copy of a zero's text per lookup.
    """

    __slots__ = ()

    def __missing__(self, score: float) -> str:
        text = _float(score)
        if score:
            self[score] = text
            return text
        return "0.0" if text == "0.0" else "-0.0"


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
    # Two stable one-key sorts give the order of one sort on the pair of ids,
    # without building a tuple key for every pair.
    pairs.sort(key=attrgetter("current_id"))
    pairs.sort(key=attrgetter("past_id"))
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


def _json_pair_pieces(levels: tuple[ConstructLevel, ...]) -> list[str | None]:
    """The pieces of one element of the report's "pairs" array, for records
    whose score maps have these levels, with a hole (``None``) between each
    two. A record's included levels are its levels after Action, the first.

    The text is ``json.dumps`` of the element with every filled value
    ``None``, indented to its place in the array and ended with a comma,
    split at each ``null``: no key holds ``null``. The writer fills the
    holes, ``[1::2]``, with the ids, the similarity texts, the novelty texts,
    the novelty displays, the average and its display, the band and the
    no-comparable flag, in that order.
    """
    keys = [level.key for level in levels]
    element = {
        "past_id": None,
        "current_id": None,
        "construct_similarity": dict.fromkeys(keys),
        "construct_novelty": dict.fromkeys(keys),
        "construct_novelty_display": dict.fromkeys(keys),
        "included_levels": keys[1:],
        "average_novelty": None,
        "average_novelty_display": None,
        "band": None,
        "no_comparable_constructs": None,
    }
    text = json.dumps(element, indent=2).replace("\n", "\n    ")
    pieces = ("\n    " + text + ",").split("null")
    slots: list[str | None] = [None] * (2 * len(pieces) - 1)
    slots[::2] = pieces
    return slots


def _json_pairs(out: list[str], pairs: list[PairAssessment]) -> None:
    """Append the pieces of the report's "pairs" elements to ``out``, each
    element followed by a comma but the last."""
    layouts = _Memo(_json_pair_pieces)
    ids = _Memo(encode_basestring)
    texts = _Reprs().__getitem__
    display3 = _displays('"%.3f"', 3)
    display2 = _displays('"%.2f"', 2)
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
        slots = layouts[similarity.levels]
        slots[1::2] = [
            ids[pair.past_id],
            ids[pair.current_id],
            *map(texts, similarity.scores),
            *novelty_texts,
            *map(display3.__getitem__, novelty_texts),
            average_text,
            average_display,
            "null" if band is None else _BANDS[band],
            _BOOLS[pair.no_comparable_constructs],
        ]
        out += slots
    if pairs:
        out[-1] = out[-1][:-1]


def render_json(report: NoveltyReport, summary_only: bool = False) -> str:
    """The report as JSON: the bytes of ``json.dumps(payload, ensure_ascii=False, indent=2)``.

    The payload holds the run's metadata, every gated pair (left out when
    ``summary_only``) with full-precision and display scores, the ranking
    and the unmatched ids. ``json.dumps`` writes all of it but the pairs,
    with ``"pairs": null`` in their place; the pairs' pieces are joined in
    at that key, in the one join that makes the text. No string value can
    hold the text ``"pairs": null``: inside an encoded string every ``"``
    is escaped, and only a key is followed by ``: ``.
    """
    fmt2 = _displays("%.2f", 2)
    payload = {
        "backend": report.backend_kind,
        "threshold": report.threshold,
        "past_corpus": report.past_corpus,
        "current_corpus": report.current_corpus,
        "pairs": None,
        "ranking": [
            {
                "rank": entry.rank,
                "current_id": entry.current_id,
                "min_novelty": entry.min_novelty,
                "min_novelty_display": fmt2[_float(entry.min_novelty)],
                "band": entry.band.value,
            }
            for entry in report.ranked
        ],
        "unmatched": [entry.current_id for entry in report.unmatched],
    }
    if summary_only:
        del payload["pairs"]
    text = json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
    if summary_only:
        return text
    pairs = _pair_columns(report)
    head, tail = text.split('"pairs": null', 1)
    out = [head, '"pairs": [']
    _json_pairs(out, pairs)
    out += "\n  ]" if pairs else "]", tail
    return "".join(out)


#: Each report format's renderer; the CLI's ``--format`` choices are its keys.
_RENDERERS = {"table": render_table, "csv": render_csv, "json": render_json}


def render_report(report: NoveltyReport, fmt: str, summary_only: bool = False) -> str:
    if fmt not in _RENDERERS:
        raise ValueError(f"unknown report format: {fmt!r}")
    return _RENDERERS[fmt](report, summary_only)
