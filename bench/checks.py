"""Output checks the benchmark applies to every pass.

Each check returns a list of failure messages; an empty list means the pass
is correct. ``check_report`` inspects the in-memory report against oracle
expectations, ``check_rendered`` the bytes a user sees, and
``check_kettle`` the case-study table.
"""

from __future__ import annotations

import csv
import io
import json
import re
from decimal import ROUND_HALF_UP, Decimal

from oracle import SIMILARITY_TOLERANCE

#: Case-study pair bands (past, current) -> band; the ranking is PS5 > PS4 > PS3.
KETTLE_BANDS = {
    "PS1-PS3": "medium",
    "PS1-PS4": "medium",
    "PS1-PS5": "high",
    "PS2-PS3": "medium",
    "PS2-PS4": "medium",
    "PS2-PS5": "high",
}
KETTLE_RANKING = ["PS5", "PS4", "PS3"]


def display(score: float) -> str:
    """Two-decimal half-up display of the shortest repr of ``score``."""
    return str(Decimal(repr(score)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def band_of(shown: str) -> str:
    value = Decimal(shown)
    if value < Decimal("0.30"):
        return "low"
    return "medium" if value < Decimal("0.70") else "high"


def check_report(report, expect: dict) -> list[str]:
    """Ranking order, minima, bands, gate count and sampled similarities."""
    failures = []
    ranked = report.ranked
    keys = [(-entry.min_novelty, entry.current_id) for entry in ranked]
    if keys != sorted(keys):
        failures.append("ranking is not sorted by descending minimum, then id")
    if [entry.rank for entry in ranked] != list(range(1, len(ranked) + 1)):
        failures.append("ranks are not 1..n")
    pairs = {}
    for entry in report.entries:
        averages = []
        for a in entry.assessments:
            pairs[(a.past_id, a.current_id)] = a
            if (a.average_novelty is None) != a.no_comparable_constructs:
                failures.append(f"{a.past_id}-{a.current_id}: average presence disagrees with its flag")
            elif a.average_novelty is not None:
                averages.append(a.average_novelty)
                if a.band is None or a.band.value != band_of(display(a.average_novelty)):
                    failures.append(f"{a.past_id}-{a.current_id}: band disagrees with its display")
        if entry.rank is None:
            if averages:
                failures.append(f"{entry.current_id}: unmatched entry has scored pairs")
            continue
        if not averages or entry.min_novelty != min(averages):
            failures.append(f"{entry.current_id}: minimum is not the minimum of its pair averages")
        elif entry.band.value != band_of(display(entry.min_novelty)):
            failures.append(f"{entry.current_id}: band disagrees with its display")
    low, high = expect["gate"]
    if not low <= len(pairs) <= high:
        failures.append(f"{len(pairs)} pairs passed the gate; the oracle expects {low}..{high}")
    for past_id, current_id, level, expected in expect["samples"]:
        assessment = pairs.get((past_id, current_id))
        scores = {} if assessment is None else {
            lvl.key: value for lvl, value in assessment.construct_similarity.items()
        }
        if level not in scores:
            failures.append(f"{past_id}-{current_id}: no {level} similarity to compare")
        elif abs(scores[level] - expected) > SIMILARITY_TOLERANCE:
            failures.append(
                f"{past_id}-{current_id} {level}: similarity {scores[level]!r}, oracle {expected!r}"
            )
    return failures


def ranking_rows(text: str, fmt: str) -> list[tuple[str, str, str]]:
    """(current id, two-decimal minimum, band) for each ranked row of a report."""
    if fmt == "json":
        return [
            (row["current_id"], row["min_novelty_display"], row["band"])
            for row in json.loads(text)["ranking"]
        ]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        start = rows.index(["rank", "current_id", "min_novelty", "band"]) + 1
        body = rows[start:]
        body = body[: body.index([])] if [] in body else body
    else:
        lines = text.split("\n")
        start = lines.index("ranking (most novel first)") + 2
        body = []
        for line in lines[start:]:
            if not line.strip():
                break
            body.append(re.split(r"\s{2,}", line.strip()))
    return [(row[1], row[2], row[3].split()[0].lower()) for row in body]


def check_rendered(text: str, fmt: str, report=None) -> list[str]:
    """The printed ranking agrees with itself and, when given, with ``report``."""
    failures = []
    rows = ranking_rows(text, fmt)
    for current_id, shown, band in rows:
        if band != band_of(shown):
            failures.append(f"{current_id}: printed band {band} disagrees with {shown}")
    if [Decimal(shown) for _, shown, _ in rows] != sorted(
        (Decimal(shown) for _, shown, _ in rows), reverse=True
    ):
        failures.append("printed ranking is not in descending order")
    if report is not None:
        expected = [(e.current_id, display(e.min_novelty), e.band.value) for e in report.ranked]
        if rows != expected:
            failures.append("printed ranking differs from the report")
    return failures


def check_kettle(text: str) -> list[str]:
    """Case study: ranking PS5 > PS4 > PS3 and the six pair bands."""
    failures = check_rendered(text, "table")
    ranking = [current_id for current_id, _, _ in ranking_rows(text, "table")]
    if ranking != KETTLE_RANKING:
        failures.append(f"case-study ranking {ranking}, expected {KETTLE_RANKING}")
    bands = {}
    header = None
    for line in text.split("\n"):
        cells = re.split(r"\s{2,}", line.strip())
        if cells[0] == "Constructs":
            header = cells[1:]
        elif cells[0] == "Novelty band" and header:
            bands.update((pair, cell.split()[0].lower()) for pair, cell in zip(header, cells[1:]))
    if bands != KETTLE_BANDS:
        failures.append(f"case-study bands {bands}, expected {KETTLE_BANDS}")
    return failures
