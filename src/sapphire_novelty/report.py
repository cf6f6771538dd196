"""Rendering of novelty reports as text tables, CSV, and JSON.

The table mirrors the classic score-table layout: one grid per past problem,
one column per gated (past, current) pair, rows for the seven construct
levels followed by the average novelty and its band. Construct novelty is
shown at three decimals and averages at two (half-up); the JSON payload
additionally carries every score at full precision so nothing is lost to
display rounding. All three formats show identical display scores and are
byte-stable given the same inputs.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Mapping

from .novelty import NoveltyBand, NoveltyReport, PairAssessment, round_half_up
from .problem_model import ConstructLevel

__all__ = [
    "report_payload",
    "render_table",
    "render_csv",
    "render_json",
    "render_report",
]

_AVERAGE_ROW = "Avg. Novelty"
_BAND_ROW = "Novelty band"


def _fmt3(value: float) -> str:
    return f"{round_half_up(value, 3):.3f}"


def _fmt2(value: float) -> str:
    return f"{round_half_up(value, 2):.2f}"


def _band_label(band: NoveltyBand | None) -> str:
    return f"{band.label} Novelty" if band is not None else "-"


def _pair_columns(report: NoveltyReport) -> list[PairAssessment]:
    """All gated pairs in deterministic order: past corpus order, then id."""
    pairs = [a for entry in report.entries for a in entry.assessments]
    pairs.sort(key=lambda a: (a.past_id, a.current_id))
    return pairs


def _by_key(scores: Mapping[ConstructLevel, float]) -> dict[str, float]:
    """Per-level scores keyed by canonical key, in canonical level order."""
    return {level.key: scores[level] for level in ConstructLevel if level in scores}


def report_payload(report: NoveltyReport) -> dict:
    """JSON-ready payload carrying full-precision and display scores."""
    pairs = []
    for assessment in _pair_columns(report):
        novelty = _by_key(assessment.construct_novelty)
        pairs.append(
            {
                "past_id": assessment.past_id,
                "current_id": assessment.current_id,
                "construct_similarity": _by_key(assessment.construct_similarity),
                "construct_novelty": novelty,
                "construct_novelty_display": {key: _fmt3(value) for key, value in novelty.items()},
                "included_levels": [level.key for level in assessment.included_levels],
                "average_novelty": assessment.average_novelty,
                "average_novelty_display": (
                    _fmt2(assessment.average_novelty)
                    if assessment.average_novelty is not None
                    else None
                ),
                "band": assessment.band.value if assessment.band is not None else None,
                "no_comparable_constructs": assessment.no_comparable_constructs,
            }
        )
    ranking = [
        {
            "rank": entry.rank,
            "current_id": entry.current_id,
            "min_novelty": entry.min_novelty,
            "min_novelty_display": _fmt2(entry.min_novelty),
            "band": entry.band.value,
        }
        for entry in report.ranked
    ]
    return {
        "backend": report.backend_kind,
        "threshold": report.threshold,
        "past_corpus": report.past_corpus,
        "current_corpus": report.current_corpus,
        "pairs": pairs,
        "ranking": ranking,
        "unmatched": [entry.current_id for entry in report.unmatched],
    }


def _grid_rows(pairs: list[PairAssessment]) -> list[list[str]]:
    """The score grid shared by the table and CSV renderers."""
    header = ["Constructs"] + [f"{a.past_id}-{a.current_id}" for a in pairs]
    rows = [header]
    for level in ConstructLevel:
        cells = [level.label]
        for assessment in pairs:
            value = assessment.construct_novelty.get(level)
            cells.append(_fmt3(value) if value is not None else "-")
        rows.append(cells)
    rows.append(
        [_AVERAGE_ROW]
        + [
            _fmt2(a.average_novelty) if a.average_novelty is not None else "-"
            for a in pairs
        ]
    )
    rows.append([_BAND_ROW] + [_band_label(a.band) for a in pairs])
    return rows


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
    pairs = _pair_columns(report)
    if not summary_only:
        for past_id in sorted({a.past_id for a in pairs}):
            subset = [a for a in pairs if a.past_id == past_id]
            lines.append(f"comparison with past problem {past_id}")
            lines.append(_layout(_grid_rows(subset)))
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
        for row in _grid_rows(_pair_columns(report)):
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


def render_json(report: NoveltyReport, summary_only: bool = False) -> str:
    payload = report_payload(report)
    if summary_only:
        payload.pop("pairs")
    return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"


def render_report(report: NoveltyReport, fmt: str, summary_only: bool = False) -> str:
    if fmt == "table":
        return render_table(report, summary_only)
    if fmt == "csv":
        return render_csv(report, summary_only)
    if fmt == "json":
        return render_json(report, summary_only)
    raise ValueError(f"unknown report format: {fmt!r}")
