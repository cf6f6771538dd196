"""The scoring pipeline: action gate, per-construct novelty, aggregation, banding, ranking.

Two problems are compared in full only when their Action texts are similar
enough (the action gate). For every other level present in both problems,
novelty = 1 - similarity; the pair's average novelty is the mean over those
shared non-Action levels, and the average is banded Low / Medium / High. A
current problem's headline score is its *minimum* average novelty over all
gated past problems; ranking orders current problems by that minimum,
most novel first.

Scores are kept at full precision internally; display and banding use
half-up rounding to two decimals, which banding applies by comparing the
score with the floats 0.295 and 0.695. Novelty conversion is decimal-faithful so
that a similarity read from a report (say 0.314) converts to exactly the
complement a human would write down (0.686), with no binary-float drift: the
result is ``float(Decimal(1) - Decimal(repr(similarity)))``. For a similarity
in [2**-36, 0.5) whose float complement is provably that same float, it is
computed in floats (see :func:`construct_novelty`); every other similarity
takes the ``Decimal`` line. Every ``Decimal`` rule here runs in one private,
fixed context, equal to Python's default, so a caller's
``decimal.localcontext`` changes no score and no rounding.

Everything here is a pure function over immutable inputs, and the report's
order is fixed by sorting, not by the order pairs were scored in. A pair
record is a slot dataclass that ranking builds once, through the same
checked constructor as any other caller, and holds its scores as tuples
aligned with its levels, in canonical order; the renderers walk those
tuples. A record is built from its two score maps alone, and derives its
included levels, average, band and no-comparable flag from them; an entry
derives its band from its minimum. Every level-keyed input (a problem's
constructs, a record's score maps, the levels :func:`aggregate_novelty`
averages) passes one rule: its keys must be construct levels, held in
canonical order. Which levels two problems share follows from their
presence masks, and each distinct layout is computed once.

Ranking runs four stages, one private function each: the Action gate
(:func:`_gate`, the first backend call), the level scores
(:func:`_level_scores`, the second and last), the records
(:func:`_records`) and the order (:func:`_order`). The middle two each walk
the gated pairs forward once; ranking keys each pair's level texts once,
and converts each distinct similarity once, in a :class:`_Memo` made anew
per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import ROUND_HALF_EVEN, ROUND_HALF_UP, Context, Decimal
from decimal import DivisionByZero, InvalidOperation, Overflow
from enum import Enum
from functools import total_ordering
from itertools import islice, product
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Optional

from .problem_model import (
    ConstructLevel,
    ProblemCorpus,
    ProblemSapphire,
    Provenance,
    _canonical_levels,
    construct_text,
)
from .similarity import SimilarityBackend, _count, _is_real, text_similarities, text_similarity

__all__ = [
    "DEFAULT_ACTION_THRESHOLD",
    "NoveltyBand",
    "PairAssessment",
    "ProblemNovelty",
    "NoveltyReport",
    "OScoreInput",
    "round_half_up",
    "round_repr_half_up",
    "construct_novelty",
    "classify_novelty",
    "aggregate_novelty",
    "action_match",
    "assess_pair",
    "rank_current_problems",
    "o_score",
]

#: Two action texts "match" when their similarity reaches this value.
DEFAULT_ACTION_THRESHOLD = 0.7

_ACTION = ConstructLevel.ACTION
#: The levels a pair's average runs over, in canonical order.
_NON_ACTION_LEVELS = tuple(level for level in ConstructLevel if level is not _ACTION)


@total_ordering
class NoveltyBand(Enum):
    """Qualitative novelty label with the total order Low < Medium < High."""

    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"

    # Members are singletons compared by identity, so the identity hash agrees
    # with equality; Enum's own hash is a Python-level call on every dict lookup.
    __hash__ = object.__hash__

    @property
    def label(self) -> str:
        return self.value.capitalize()

    def __lt__(self, other: "NoveltyBand") -> bool:
        if not isinstance(other, NoveltyBand):
            return NotImplemented
        return _BAND_RANK[self] < _BAND_RANK[other]


_BAND_RANK = {NoveltyBand.LOW: 0, NoveltyBand.MEDIUM: 1, NoveltyBand.HIGH: 2}


#: The context of every ``Decimal`` rule here: Python's default, spelled out
#: field by field rather than copied from the mutable ``DefaultContext``, so
#: the thread's current context never changes a score. Operations set its
#: flags, which nothing reads.
_CONTEXT = Context(
    prec=28, rounding=ROUND_HALF_EVEN, Emin=-999999, Emax=999999, capitals=1, clamp=0,
    flags=[], traps=[InvalidOperation, DivisionByZero, Overflow],
)
_ONE = Decimal(1)

#: 10 ** -ndigits for the digit counts the reports display, made once.
_QUANTA = {ndigits: _ONE.scaleb(-ndigits, _CONTEXT) for ndigits in (2, 3)}

#: The similarities whose novelty :func:`construct_novelty` may take in
#: floats, [_FAST_LOW, _FAST_HIGH), and the bound on the float complement's
#: rounding error below which it does.
_FAST_LOW = 2.0**-36
_FAST_HIGH = 0.5
_HALF_GAP = 2.0**-54


def _as_float(value: object, name: str) -> float:
    """``value`` as a ``float``, by the type rule :func:`text_similarities` applies
    to a backend's scores: a real number that is not a ``bool`` is converted
    with ``float()``, and anything else raises ``ValueError`` naming it.

    The public scalars below call it only for a value that is not a ``float``
    already, so ranking, which hands them only floats, pays nothing for it.
    """
    if not _is_real(value):
        raise ValueError(f"{name} {value!r} is not a real number")
    try:
        return float(value)
    except OverflowError:  # an int beyond the largest float
        raise ValueError(f"{name} {value!r} outside the range of a float") from None


def _unit(value: object, name: str) -> float:
    """``value`` as a ``float`` (see :func:`_as_float`), which must lie in [0, 1]:
    the one range rule for every score and the Action threshold. A NaN or a
    value outside raises ``ValueError`` naming it as given."""
    number = value if type(value) is float else _as_float(value, name)
    if not 0.0 <= number <= 1.0:
        raise ValueError(f"{name} {value} outside [0, 1]")
    return number


def round_half_up(value: float, ndigits: int = 2) -> float:
    """Decimal half-up rounding of the shortest decimal representation of ``value``.

    Avoids the binary-float trap where e.g. round(0.675, 2) rounds down.
    ``value`` is a real number, taken as its ``float`` (see :func:`_as_float`),
    that :func:`round_repr_half_up` can round.
    """
    if type(value) is not float:
        value = _as_float(value, "value")
    return round_repr_half_up(repr(value), ndigits)


def round_repr_half_up(text: str, ndigits: int = 2) -> float:
    """:func:`round_half_up` of the float whose ``repr`` is ``text``, for a
    caller that holds that shortest decimal representation already.

    A NaN, an infinity, or a value whose rounding needs more than the 28
    digits of ``_CONTEXT`` (``abs(value) >= 10 ** (28 - ndigits)``) raises
    ``ValueError`` naming it.
    """
    quantum = _QUANTA[ndigits] if ndigits in _QUANTA else _ONE.scaleb(-ndigits, _CONTEXT)
    try:
        rounded = Decimal(text, _CONTEXT).quantize(quantum, ROUND_HALF_UP, _CONTEXT)
        if not rounded.is_nan():
            return float(rounded)
    except InvalidOperation:  # an infinity, or more digits than the context holds
        pass
    raise ValueError(f"value {text} cannot be rounded to {ndigits} decimal places")


def construct_novelty(similarity: float) -> float:
    """Novelty of one construct pair: 1 - similarity, computed decimal-faithfully.

    ``similarity`` is a real number in [0, 1], taken as its ``float`` (see
    :func:`_as_float`). The result is ``float(Decimal(1) - Decimal(r))`` for
    ``r = repr(similarity)``: the complement of the similarity as a report
    prints it.

    For ``2**-36 <= s < 0.5`` it is found in floats, bit for bit the same:

    - ``c = fl(1 - s)`` lies in [0.5, 1], so ``1 - c`` is exact (Sterbenz's
      lemma), and so is ``e = (1 - c) - s``; then ``1 - s = c + e``.
    - ``1``, ``c`` and ``s`` are multiples of ``ulp(s) <= 2**-54``, and so is
      ``e``; so ``|e| < 2**-54`` gives ``|e| <= 2**-54 - ulp(s)``.
    - ``r`` lies within ``ulp(s) / 2`` of ``s``, so ``|(1 - r) - c| < 2**-54``,
      which is at most half the gap on either side of ``c`` (``c = 0.5`` needs
      ``|e| = 2**-54`` and never gets here). The double nearest ``1 - r`` is
      therefore ``c``.
    - ``r`` has at most 17 significant digits, the first no further right
      than the 11th decimal place since ``s >= 2**-36``; so ``1 - r`` has at
      most 27 decimal places, the ``Decimal`` subtraction is exact at 28
      digits, and ``float()`` rounds it once, to the same ``c``.

    A tie (``|e| = 2**-54``), ``s >= 0.5`` and ``s < 2**-36`` (``0.0`` and
    ``-0.0`` too) take the ``Decimal`` line.
    """
    if not (type(similarity) is float and 0.0 <= similarity <= 1.0):
        similarity = _unit(similarity, "similarity")
    if _FAST_LOW <= similarity < _FAST_HIGH:
        complement = 1.0 - similarity
        if abs((1.0 - complement) - similarity) < _HALF_GAP:
            return complement
    return float(_CONTEXT.subtract(_ONE, Decimal(repr(similarity))))


def classify_novelty(score: float) -> NoveltyBand:
    """Band a novelty score: Low [0, 0.3), Medium [0.3, 0.7), High [0.7, 1].

    Banding applies to the display-rounded (two-decimal) score, so a label
    always agrees with the number a report prints next to it. That rounding
    is below 0.3 exactly when the score is below the float 0.295, and below
    0.7 exactly when it is below 0.695, since the shortest ``repr`` of a float
    is strictly increasing with it and those two floats print as ``0.295``
    and ``0.695``; so the score is compared with them directly. ``score`` is a
    real number in [0, 1], taken as its ``float`` (see :func:`_as_float`).
    """
    if not (type(score) is float and 0.0 <= score <= 1.0):
        score = _unit(score, "novelty score")
    if score < 0.295:
        return NoveltyBand.LOW
    if score < 0.695:
        return NoveltyBand.MEDIUM
    return NoveltyBand.HIGH


def aggregate_novelty(
    construct_scores: Mapping[ConstructLevel, float],
    included: Iterable[ConstructLevel],
) -> float:
    """Arithmetic mean of per-construct novelty over ``included`` levels.

    The Action level is the gate, not part of the average, and is rejected
    here, as is anything in ``included`` that is not a level. Each averaged
    score is a real number in [0, 1], taken as its ``float`` (see
    :func:`_as_float`); a NaN or a score outside raises ``ValueError`` naming
    its level. The mean is a ``float``. Summation follows the canonical level order
    so the result is bit-identical regardless of the order callers assembled
    the map in.
    """
    included = _canonical_levels(dict.fromkeys(included))
    if not included:
        raise ValueError("cannot aggregate over an empty set of levels")
    if _ACTION in included:
        raise ValueError("the Action level is gated, never averaged")
    missing = [level.key for level in included if level not in construct_scores]
    if missing:
        raise ValueError(f"no score for included level(s): {sorted(missing)}")
    scores = [_unit(construct_scores[level], f"{level.key} novelty") for level in included]
    return sum(scores) / len(included)


class _LevelMap(Mapping[ConstructLevel, float]):
    """A read-only level -> score map held as two tuples: ``levels`` in
    canonical order, and ``scores`` aligned with them."""

    __slots__ = ("levels", "scores")

    def __init__(self, levels: tuple[ConstructLevel, ...], scores: tuple[float, ...]) -> None:
        self.levels = levels
        self.scores = scores

    @classmethod
    def of(cls, scores: Mapping[ConstructLevel, float], name: str) -> "_LevelMap":
        """``scores`` in canonical level order, each a real number in [0, 1] taken
        as its ``float`` (see :func:`_unit`, which names a bad one as the
        level's ``name``); a key that is not a level raises ``ValueError``."""
        levels = _canonical_levels(scores)
        return cls(levels, tuple(_unit(scores[level], f"{level.key} {name}") for level in levels))

    def __getitem__(self, level: ConstructLevel) -> float:
        for present, score in zip(self.levels, self.scores):
            if present is level:
                return score
        raise KeyError(level)

    def __iter__(self) -> Iterator[ConstructLevel]:
        return iter(self.levels)

    def __len__(self) -> int:
        return len(self.levels)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(zip(self.levels, self.scores))!r})"


_set = object.__setattr__


@dataclass(frozen=True, slots=True, init=False)
class PairAssessment:
    """Scores for one gated (past, current) pair, and what follows from them.

    The two score maps are given; everything else is derived from them. Both
    maps must have the same levels, the Action level among them: the Action
    entry always, and each other level iff both problems carry that
    construct. A map that lacks Action, or maps whose levels differ, raise
    ``ValueError``. ``included_levels`` are the non-Action levels, the ones
    averaged; ``average_novelty`` is the mean of the novelty scores over
    them, summed in canonical level order as :func:`aggregate_novelty` sums
    them, and ``band`` is :func:`classify_novelty` of that average. When the
    pair shares no non-Action level, ``no_comparable_constructs`` is set and
    the average and band are ``None``. Both score maps are read-only and
    iterate in canonical level order, whatever order the maps given to the
    constructor were built in. Every score in them is a real number in
    [0, 1], held as its ``float`` (see :func:`_as_float`). The novelty map's
    levels are checked, but not its values: that each is
    :func:`construct_novelty` of the similarity beside it is the caller's to
    keep, as ranking does.
    """

    past_id: str
    current_id: str
    construct_similarity: Mapping[ConstructLevel, float]
    construct_novelty: Mapping[ConstructLevel, float]
    included_levels: tuple[ConstructLevel, ...] = field(init=False)
    average_novelty: Optional[float] = field(init=False)
    band: Optional[NoveltyBand] = field(init=False)
    no_comparable_constructs: bool = field(init=False)

    def __init__(
        self,
        past_id: str,
        current_id: str,
        construct_similarity: Mapping[ConstructLevel, float],
        construct_novelty: Mapping[ConstructLevel, float],
    ) -> None:
        # Written by hand, not generated: ranking builds one record per gated
        # pair, and a generated __init__ plus __post_init__ costs about half as
        # much again per record.
        if type(construct_similarity) is not _LevelMap:
            construct_similarity = _LevelMap.of(construct_similarity, "similarity")
        if type(construct_novelty) is not _LevelMap:
            construct_novelty = _LevelMap.of(construct_novelty, "novelty")
        levels = construct_similarity.levels
        included = _INCLUDED.get(levels)
        if included is None or construct_novelty.levels != levels:
            keys = [[level.key for level in held] for held in (construct_similarity, construct_novelty)]
            raise ValueError(f"score maps must share their levels, Action among them: {keys[0]} vs {keys[1]}")
        average = sum(construct_novelty.scores[1:]) / len(included) if included else None
        _set(self, "past_id", past_id)
        _set(self, "current_id", current_id)
        _set(self, "construct_similarity", construct_similarity)
        _set(self, "construct_novelty", construct_novelty)
        _set(self, "included_levels", included)
        _set(self, "average_novelty", average)
        _set(self, "band", None if average is None else classify_novelty(average))
        _set(self, "no_comparable_constructs", not included)


@dataclass(frozen=True)
class ProblemNovelty:
    """One current problem's assessments, minimum novelty, band, and rank.

    ``rank`` (1 = most novel) and the minimum are absent for unmatched
    problems, i.e. those with no gated pair carrying an average. A minimum
    that is present passes the score rule (:func:`_unit`), and a rank that is
    present the count rule (``similarity._count``): an integer of at least 1
    that is not a ``bool``, held as its ``int``. ``band`` is derived:
    :func:`classify_novelty` of the minimum, or ``None`` without one.
    """

    current_id: str
    assessments: tuple[PairAssessment, ...]
    min_novelty: Optional[float] = None
    band: Optional[NoveltyBand] = field(init=False)
    rank: Optional[int] = None

    def __post_init__(self) -> None:
        if self.min_novelty is not None:
            _set(self, "min_novelty", _unit(self.min_novelty, "min_novelty"))
        _set(self, "band", None if self.min_novelty is None else classify_novelty(self.min_novelty))
        if self.rank is not None:
            _set(self, "rank", _count(self.rank, "rank", 1))


@dataclass(frozen=True)
class NoveltyReport:
    """Ranking of a current corpus against a past corpus.

    ``ranked`` is ordered by descending minimum novelty (ties broken by
    ascending problem id); ``unmatched`` lists, in id order, the current
    problems with no scorable gated pair. ``threshold`` passes the score
    rule (:func:`_unit`). A ranked entry must carry a minimum and a rank,
    and with them a band, and an unmatched entry neither; anything else
    raises ``ValueError`` naming the entry's ``current_id``.
    """

    backend_kind: str
    threshold: float
    past_corpus: str
    current_corpus: str
    ranked: tuple[ProblemNovelty, ...] = ()
    unmatched: tuple[ProblemNovelty, ...] = ()

    def __post_init__(self) -> None:
        _set(self, "threshold", _unit(self.threshold, "threshold"))
        for entry in self.ranked:
            if entry.min_novelty is None or entry.rank is None:
                raise ValueError(f"ranked entry {entry.current_id!r} lacks a min_novelty or a rank")
        for entry in self.unmatched:
            if entry.min_novelty is not None or entry.rank is not None:
                raise ValueError(f"unmatched entry {entry.current_id!r} carries a min_novelty or a rank")

    @property
    def entries(self) -> tuple[ProblemNovelty, ...]:
        return self.ranked + self.unmatched


class _Memo(dict):
    """``make(key)`` for each key looked up, made on its first lookup; one per call."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[Any], Any]) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key: Any) -> Any:
        value = self[key] = self.make(key)
        return value


def _action_texts(problems: Iterable[ProblemSapphire]) -> list[str]:
    """The Action text of each problem, which must carry one."""
    texts = [construct_text(problem, _ACTION) for problem in problems]
    if None in texts:
        raise ValueError("every compared problem must carry an Action construct")
    return texts


def _level_texts(problem: ProblemSapphire) -> tuple[Optional[str], ...]:
    """The problem's text at each non-Action level, None where absent, in canonical order."""
    return tuple(construct_text(problem, level) for level in _NON_ACTION_LEVELS)


def _presence(texts: tuple[Optional[str], ...]) -> int:
    """Bit ``i`` is set iff the problem carries the ``i``-th non-Action level."""
    return sum(1 << position for position, text in enumerate(texts) if text is not None)


class _Layout(NamedTuple):
    """The non-Action levels two problems share: their positions, the levels
    (averaged), and the Action level followed by them (the score maps' keys)."""

    positions: tuple[int, ...]
    included: tuple[ConstructLevel, ...]
    levels: tuple[ConstructLevel, ...]


def _layout(shared: int) -> _Layout:
    positions = tuple(p for p in range(len(_NON_ACTION_LEVELS)) if shared >> p & 1)
    included = tuple(_NON_ACTION_LEVELS[p] for p in positions)
    return _Layout(positions, included, (_ACTION,) + included)


#: The layout of each presence mask two problems can share, indexed by that mask.
_LAYOUTS = tuple(map(_layout, range(1 << len(_NON_ACTION_LEVELS))))
#: The included levels of each score-map layout, keyed by the maps' levels,
#: so every record of one layout holds the same tuple.
_INCLUDED = {layout.levels: layout.included for layout in _LAYOUTS}


def action_match(
    past: ProblemSapphire,
    current: ProblemSapphire,
    backend: SimilarityBackend,
    threshold: float = DEFAULT_ACTION_THRESHOLD,
) -> tuple[bool, float]:
    """Compare the two Action texts; matched iff similarity >= threshold.

    Callers are expected to pass validated problems (Action present).
    """
    threshold = _unit(threshold, "threshold")
    past_action, current_action = _action_texts((past, current))
    similarity = text_similarity(past_action, current_action, backend)
    return similarity >= threshold, similarity


def assess_pair(
    past: ProblemSapphire,
    current: ProblemSapphire,
    backend: SimilarityBackend,
    threshold: float = DEFAULT_ACTION_THRESHOLD,
) -> Optional[PairAssessment]:
    """Assess one (past, current) pair; None when the action gate fails.

    Action similarity and novelty are recorded but excluded from the average;
    the average runs over the non-Action levels present in both problems. The
    record is the one :func:`rank_current_problems` builds for this pair when
    it ranks the one-problem corpora ``(past,)`` and ``(current,)``.
    """
    past_corpus = ProblemCorpus("", Provenance.PAST, (past,))
    current_corpus = ProblemCorpus("", Provenance.CURRENT, (current,))
    (entry,) = rank_current_problems(past_corpus, current_corpus, backend, threshold).entries
    return entry.assessments[0] if entry.assessments else None


#: For each current Action, each gated past problem's index and Action similarity.
_Matches = dict[str, list[tuple[int, float]]]
#: Each problem's text at each non-Action level, as :func:`_level_texts` gives it.
_LevelTexts = list[tuple[Optional[str], ...]]
#: Per current problem, each gated pair as (past index, Action similarity, layout).
_GatedPairs = list[list[tuple[int, float, _Layout]]]
#: A current problem's id, the records of its gated pairs, and the least of their averages.
_Entry = tuple[str, tuple[PairAssessment, ...], Optional[float]]


def _gate(past: list[str], current: list[str], backend: SimilarityBackend, threshold: float) -> _Matches:
    """The Action gate over the past and current Action texts: for each
    current Action, each gated past problem's index and Action similarity, in
    corpus order.

    It makes ranking's first backend call, over the product of the unique
    past and current Actions.
    """
    past_groups: dict[str, list[int]] = {}
    for index, action in enumerate(past):
        past_groups.setdefault(action, []).append(index)
    unique_current = dict.fromkeys(current)
    # A product of unique keys, so every pair is unique already; the gate
    # values are row-major, one row per past Action and one column per current one.
    gate = text_similarities(list(product(past_groups, unique_current)), backend)
    return {
        action: sorted(
            (index, similarity)
            for similarity, indices in zip(gate[column :: len(unique_current)], past_groups.values())
            if similarity >= threshold
            for index in indices
        )
        for column, action in enumerate(unique_current)
    }


def _level_scores(
    past_texts: _LevelTexts, current_texts: _LevelTexts, gated_pairs: _GatedPairs, backend: SimilarityBackend
) -> tuple[list[int], list[float]]:
    """The numbers of every gated pair's level pairs, in one list, and the
    similarity of each number, in a list indexed by it.

    Each unique (past text, current text) pair is numbered in order of first
    appearance, and ranking's second and last backend call scores them in
    that order.
    """
    numbers: dict[tuple[str, str], int] = {}
    slots = [
        numbers.setdefault((past_texts[i][p], texts[p]), len(numbers))
        for texts, pairs in zip(current_texts, gated_pairs)
        for i, _, layout in pairs
        for p in layout.positions
    ]
    return slots, text_similarities(list(numbers), backend)


def _records(
    past: ProblemCorpus, current: ProblemCorpus, gated_pairs: _GatedPairs, slots: list[int], scores: list[float]
) -> Iterator[_Entry]:
    """Each current problem's entry: its records, read off ``slots`` pair by
    pair, and its minimum, the least of the records' averages, tracked as they
    are built.

    Each distinct similarity is converted to novelty once per call; each
    record derives its average and band from its novelty map.
    """
    novelty = _Memo(construct_novelty)
    past_ids = [problem.id for problem in past.problems]
    slot = iter(slots)
    for current_id, pairs in zip((problem.id for problem in current.problems), gated_pairs):
        records = []
        minimum = None
        for i, action_similarity, (_, included, levels) in pairs:
            similarities = (action_similarity, *map(scores.__getitem__, islice(slot, len(included))))
            novelties = _LevelMap(levels, tuple(map(novelty.__getitem__, similarities)))
            record = PairAssessment(past_ids[i], current_id, _LevelMap(levels, similarities), novelties)
            average = record.average_novelty
            if average is not None and (minimum is None or average < minimum):
                minimum = average
            records.append(record)
        yield current_id, tuple(records), minimum


def _order(entries: Iterable[_Entry]) -> tuple[tuple[ProblemNovelty, ...], tuple[ProblemNovelty, ...]]:
    """The ranked problems, by descending minimum and then ascending id, each
    with its rank; and the unmatched ones, which have no minimum, by id.
    Sorting by id and then, stably, by minimum gives the ranked order."""
    by_id = sorted(entries, key=lambda entry: entry[0])
    scored = sorted((entry for entry in by_id if entry[2] is not None), key=lambda entry: -entry[2])
    ranked = tuple(
        ProblemNovelty(current_id, records, minimum, rank)
        for rank, (current_id, records, minimum) in enumerate(scored, start=1)
    )
    return ranked, tuple(ProblemNovelty(entry[0], entry[1]) for entry in by_id if entry[2] is None)


def rank_current_problems(
    past: ProblemCorpus,
    current: ProblemCorpus,
    backend: SimilarityBackend,
    threshold: float = DEFAULT_ACTION_THRESHOLD,
) -> NoveltyReport:
    """Assess every current problem against every past problem and rank them.

    A current problem's score is the minimum average novelty among its gated
    pairs; problems whose pairs all gate out (or share no scorable construct)
    land in the unmatched list with absent scores. Ordering is deterministic:
    descending minimum novelty, ties by ascending id. ``past`` must have the
    role :attr:`Provenance.PAST` and ``current`` :attr:`Provenance.CURRENT`;
    corpora given the other way round raise ``ValueError`` naming both roles.

    Ranking runs four stages: the Action gate (:func:`_gate`), the level
    scores (:func:`_level_scores`), the records (:func:`_records`) and the
    order (:func:`_order`). The backend sees two bulk calls, one in each of
    the first two stages: one over the unique (past, current) Action pairs,
    then one over the unique level-text pairs of the gated problem pairs,
    each in order of first appearance.
    """
    if past.role is not Provenance.PAST or current.role is not Provenance.CURRENT:
        roles = f"{past.role.value!r} and {current.role.value!r}"
        raise ValueError(f"ranking takes a past corpus, then a current one; got {roles}")
    if not past.problems:
        raise ValueError("the past corpus must be non-empty")
    threshold = _unit(threshold, "threshold")
    current_actions = _action_texts(current.problems)
    matches = _gate(_action_texts(past.problems), current_actions, backend, threshold)
    past_texts = [_level_texts(problem) for problem in past.problems]
    past_masks = list(map(_presence, past_texts))
    current_texts = [_level_texts(problem) for problem in current.problems]
    gated_pairs = [
        [(i, similarity, _LAYOUTS[past_masks[i] & mask]) for i, similarity in matches[action]]
        for mask, action in zip(map(_presence, current_texts), current_actions)
    ]
    slots, scores = _level_scores(past_texts, current_texts, gated_pairs, backend)
    ranked, unmatched = _order(_records(past, current, gated_pairs, slots, scores))
    return NoveltyReport(backend.kind, threshold, past.name, current.name, ranked, unmatched)


@dataclass(frozen=True)
class OScoreInput:
    """Counts behind the frequency baseline: n similar ideas out of m total.

    Each count takes the count rule of a rank (``similarity._count``): an
    integer that is not a ``bool``, held as its ``int``, with ``m`` at least 1
    and ``n`` at least 0; ``n`` must not exceed ``m``. Anything else raises
    ``ValueError`` naming it.
    """

    n: int
    m: int

    def __post_init__(self) -> None:
        _set(self, "m", _count(self.m, "m", 1))
        _set(self, "n", _count(self.n, "n", 0))
        if self.n > self.m:
            raise ValueError(f"n must satisfy 0 <= n <= m, got n={self.n}, m={self.m}")


def o_score(counts: OScoreInput) -> float:
    """Frequency-based originality baseline: 1 - n/m."""
    return 1.0 - counts.n / counts.m
