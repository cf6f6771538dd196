"""Problem-SAPPhIRE data model.

A design problem is described as short natural-language phrases at the seven
SAPPhIRE abstraction levels (Action, State Change, Phenomena, Effect, Input,
oRgan, Parts). Only the Action level is mandatory; everything below it may be
absent, which downstream scoring handles by averaging over the levels a pair
of problems actually shares.

All types here are immutable values: safe to share between workers without
coordination.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Optional


class ConstructLevel(Enum):
    """The seven SAPPhIRE abstraction levels, in canonical display order.

    The enum value is the canonical lowercase key used in every file format.
    """

    ACTION = "action"
    STATE_CHANGE = "state_change"
    PHENOMENA = "phenomena"
    EFFECT = "effect"
    INPUT = "input"
    ORGAN = "organ"
    PARTS = "parts"

    # Members are singletons compared by identity, so the identity hash agrees
    # with equality; Enum's own hash is a Python-level call on every dict lookup.
    __hash__ = object.__hash__

    @property
    def key(self) -> str:
        return self.value

    @property
    def label(self) -> str:
        """Display name; renders the R-highlighted 'oRgan' spelling."""
        return _LEVEL_LABELS[self]

    @classmethod
    def from_key(cls, key: str) -> "ConstructLevel":
        try:
            return cls(key)
        except ValueError:
            raise ValueError(f"unknown construct key: {key!r}") from None


_LEVEL_LABELS = {
    ConstructLevel.ACTION: "Action",
    ConstructLevel.STATE_CHANGE: "State Change",
    ConstructLevel.PHENOMENA: "Phenomena",
    ConstructLevel.EFFECT: "Effect",
    ConstructLevel.INPUT: "Input",
    ConstructLevel.ORGAN: "oRgan",
    ConstructLevel.PARTS: "Parts",
}

#: The levels in canonical order; a tuple iterates without the Enum class's Python-level iterator.
_LEVEL_ORDER = tuple(ConstructLevel)

#: Canonical lowercase keys in the same order, as used in all file formats.
CANONICAL_LEVEL_KEYS: tuple[str, ...] = tuple(level.key for level in _LEVEL_ORDER)


def _canonical_levels(keyed: Mapping) -> tuple[ConstructLevel, ...]:
    """The keys of ``keyed`` in canonical level order; a key that is not a
    :class:`ConstructLevel` raises ``ValueError`` naming it."""
    levels = tuple(level for level in _LEVEL_ORDER if level in keyed)
    if len(levels) != len(keyed):
        others = [key for key in keyed if not isinstance(key, ConstructLevel)]
        raise ValueError(f"keys must be construct levels: {others!r}")
    return levels


class Provenance(Enum):
    """Whether a problem belongs to the reference (past) or assessed (current) set."""

    PAST = "past"
    CURRENT = "current"


@dataclass(frozen=True)
class Violation:
    """One broken invariant: which field, at which level (if any), and why."""

    field: str
    message: str
    level: Optional[ConstructLevel] = None

    def __str__(self) -> str:
        where = f"{self.field}[{self.level.key}]" if self.level else self.field
        return f"{where}: {self.message}"


@dataclass(frozen=True)
class ProblemSapphire:
    """One design problem expressed at the SAPPhIRE levels.

    ``constructs`` maps a level to its phrase; levels other than Action may be
    absent, and a key that is not a level raises ``ValueError``. Texts are
    stored verbatim (no normalisation at rest) so reports preserve source
    fidelity; the similarity engine normalises on its side.
    """

    id: str
    label: str
    provenance: Provenance
    source: str = ""
    context: str = ""
    constructs: Mapping[ConstructLevel, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        ordered = {level: self.constructs[level] for level in _canonical_levels(self.constructs)}
        object.__setattr__(self, "constructs", MappingProxyType(ordered))


@dataclass(frozen=True)
class ProblemCorpus:
    """A named, ordered collection of problems sharing one provenance role."""

    name: str
    role: Provenance
    problems: tuple[ProblemSapphire, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "problems", tuple(self.problems))

    def __len__(self) -> int:
        return len(self.problems)

    def __iter__(self):
        return iter(self.problems)


# Read with errors="surrogateescape", a byte that is not UTF-8 becomes one of
# these characters, so each file reader can name the line that holds it.
_UNDECODED = re.compile("[\udc80-\udcff]")


def _not_utf8(text: str) -> Optional[str]:
    """What is wrong with ``text`` if it holds a byte that is not UTF-8, else None."""
    # isascii() reads a flag the string holds, so an ASCII text is not searched.
    match = None if text.isascii() else _UNDECODED.search(text)
    return None if match is None else f"not UTF-8 (byte {ord(match.group()) - 0xDC00:#04x})"


def _unencodable(text: str) -> Optional[str]:
    """Why ``text`` cannot be written as UTF-8 (it holds a lone surrogate), else None."""
    if text.isascii():
        return None
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as error:
        return f"must be writable as UTF-8, but holds the lone surrogate {text[error.start]!r}"
    return None


def validate_problem(problem: ProblemSapphire) -> list[Violation]:
    """Check every ProblemSapphire invariant; empty list means the record is ok.

    Violations are data, not failures: callers decide whether to abort or skip.
    Every text must encode as UTF-8, so that a valid corpus can be saved.
    """
    violations: list[Violation] = []
    if not problem.id:
        violations.append(Violation("id", "must be non-empty"))
    elif problem.id.split() != [problem.id]:  # str.split() splits where str.isspace() holds
        violations.append(Violation("id", f"must not contain whitespace: {problem.id!r}"))
    for name in ("id", "label", "source", "context"):
        if reason := _unencodable(getattr(problem, name)):
            violations.append(Violation(name, reason))

    action = problem.constructs.get(ConstructLevel.ACTION)
    if action is None or not action.strip():
        violations.append(
            Violation(
                "constructs",
                "the Action construct is mandatory and must be non-empty",
                level=ConstructLevel.ACTION,
            )
        )

    for level, text in problem.constructs.items():
        if reason := _unencodable(text):
            violations.append(Violation("constructs", reason, level=level))
        elif level is not ConstructLevel.ACTION and not text.strip():
            violations.append(
                Violation("constructs", "present construct text must be non-empty", level=level)
            )
    return violations


def construct_text(problem: ProblemSapphire, level: ConstructLevel) -> Optional[str]:
    """Return the verbatim construct text at ``level``, or None when absent.

    Never returns empty text: a stored phrase that is blank after trimming is
    reported as absent.
    """
    text = problem.constructs.get(level)
    if text is None or not text.strip():
        return None
    return text


def _corpus_findings(
    items: Iterable[tuple[int, ProblemSapphire | str]],
    role: Optional[Provenance],
    name: Callable[[int], str],
) -> Iterator[tuple[int, ProblemSapphire | str, list[Violation]]]:
    """The one rule set of a corpus, in any form: yields ``(number, item,
    violations)`` for each ``(number, item)`` of ``items``.

    An item is a problem at position ``number``, or a reader's message
    naming a position that holds no problem; a message breaks no rule of its
    own. A problem's violations are those of :func:`validate_problem`, then a
    provenance other than ``role`` (when ``role`` is None, that of the first
    problem), then an id that an earlier problem holds, valid or not, whose
    position ``name`` names.
    """
    first: dict[str, int] = {}
    for number, item in items:
        if isinstance(item, str):
            yield number, item, []
            continue
        violations = validate_problem(item)
        role = role or item.provenance
        if item.provenance is not role:
            message = f"{item.provenance.value!r} does not match the corpus role {role.value!r}"
            violations.append(Violation("provenance", message))
        if first.setdefault(item.id, number) != number:
            violations.append(Violation("id", f"duplicate id {item.id!r} (first on {name(first[item.id])})"))
        yield number, item, violations


def validate_corpus(corpus: ProblemCorpus) -> list[Violation]:
    """Check each member problem by :func:`_corpus_findings`, against the
    corpus role; each violation's field names its problem, as in
    ``problems[1].id``."""
    findings = _corpus_findings(enumerate(corpus.problems), corpus.role, "problems[{}]".format)
    return [
        Violation(f"problems[{index}].{violation.field}", violation.message, violation.level)
        for index, _, violations in findings
        for violation in violations
    ]


def make_constructs(**texts: str) -> dict[ConstructLevel, str]:
    """Build a construct map from canonical keys, e.g. make_constructs(action=...)."""
    return {ConstructLevel.from_key(key): value for key, value in texts.items()}
