"""Novelty assessment for engineering design problems.

Each problem is modelled at the seven SAPPhIRE abstraction levels; current
problems are compared with a reference corpus of past problems construct by
construct, novelty is 1 - semantic similarity, and a current problem's
headline score is its minimum average novelty over all action-matched past
problems.
"""

from .corpus_store import (
    CorpusFormatError,
    CorpusWarning,
    import_survey_csv,
    load_corpus,
    save_corpus,
)
from .novelty import (
    DEFAULT_ACTION_THRESHOLD,
    NoveltyBand,
    NoveltyReport,
    OScoreInput,
    PairAssessment,
    ProblemNovelty,
    action_match,
    aggregate_novelty,
    assess_pair,
    classify_novelty,
    construct_novelty,
    o_score,
    rank_current_problems,
    round_half_up,
)
from .problem_model import (
    CANONICAL_LEVEL_KEYS,
    ConstructLevel,
    ProblemCorpus,
    ProblemSapphire,
    Provenance,
    Violation,
    construct_text,
    make_constructs,
    validate_corpus,
    validate_problem,
)
from .report import render_csv, render_json, render_report, render_table
from .similarity import (
    BackendUnavailableError,
    FixtureBackend,
    FixtureFormatError,
    LexicalBackend,
    MissingFixtureError,
    OovWarning,
    SimilarityBackend,
    WordVectorFormatError,
    load_fixture_similarities,
    text_similarity,
    tokenize,
)

__all__ = [
    "CorpusFormatError",
    "CorpusWarning",
    "import_survey_csv",
    "load_corpus",
    "save_corpus",
    "DEFAULT_ACTION_THRESHOLD",
    "NoveltyBand",
    "NoveltyReport",
    "OScoreInput",
    "PairAssessment",
    "ProblemNovelty",
    "action_match",
    "aggregate_novelty",
    "assess_pair",
    "classify_novelty",
    "construct_novelty",
    "o_score",
    "rank_current_problems",
    "round_half_up",
    "CANONICAL_LEVEL_KEYS",
    "ConstructLevel",
    "ProblemCorpus",
    "ProblemSapphire",
    "Provenance",
    "Violation",
    "construct_text",
    "make_constructs",
    "validate_corpus",
    "validate_problem",
    "render_csv",
    "render_json",
    "render_report",
    "render_table",
    "BackendUnavailableError",
    "FixtureBackend",
    "FixtureFormatError",
    "LexicalBackend",
    "MissingFixtureError",
    "OovWarning",
    "RemoteBackend",
    "SimilarityBackend",
    "WordVectorBackend",
    "WordVectorFormatError",
    "load_fixture_similarities",
    "load_word_vectors",
    "text_similarity",
    "tokenize",
]

# Served on first access from the module that defines them, so only the
# vector backends load numpy, and only the remote backend the HTTP client.
_VECTOR_NAMES = frozenset({"WordVectorBackend", "load_word_vectors"})


def __getattr__(name: str):
    if name == "RemoteBackend":
        from .remote import RemoteBackend

        return RemoteBackend
    if name in _VECTOR_NAMES:
        from . import vectors

        return getattr(vectors, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
