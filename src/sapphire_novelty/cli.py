"""Command-line entry point: validate corpora, assess/rank novelty, O score.

Exit-code contract: 0 success, 1 data problem (validation failures, bad
counts), 2 environment problem (unreadable files, backend failures, usage).
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from typing import Optional, Sequence

from .corpus_store import CorpusFormatError, load_corpus, validate_corpus_file
from .novelty import (
    DEFAULT_ACTION_THRESHOLD,
    OScoreInput,
    o_score,
    rank_current_problems,
)
from .problem_model import Provenance
from .report import _RENDERERS, render_report
from .similarity import (
    BackendUnavailableError,
    FixtureBackend,
    LexicalBackend,
    MissingFixtureError,
    SimilarityBackend,
    WordVectorFormatError,
)

__all__ = ["main", "cmd_validate", "cmd_assess", "cmd_oscore"]

ENV_EMBED_URL = "SAPPHIRE_EMBED_URL"

EXIT_OK = 0
EXIT_DATA = 1
EXIT_ENVIRONMENT = 2


def _build_backend(args: argparse.Namespace, parser: argparse.ArgumentParser) -> SimilarityBackend:
    if args.backend == "lexical":
        return LexicalBackend()
    if args.backend == "wordvec":
        if not args.vectors:
            parser.error("--backend wordvec requires --vectors <path>")
        from .vectors import WordVectorBackend

        return WordVectorBackend.from_file(args.vectors)
    if args.backend == "fixture":
        if not args.fixtures:
            parser.error("--backend fixture requires --fixtures <path>")
        return FixtureBackend.from_file(args.fixtures)
    # "remote": the parser admits no other backend.
    endpoint = args.endpoint or os.environ.get(ENV_EMBED_URL)
    if not endpoint:
        parser.error(
            f"--backend remote requires --endpoint <url> or the {ENV_EMBED_URL} variable"
        )
    from .remote import RemoteBackend

    return RemoteBackend(endpoint=endpoint)


def cmd_validate(paths: Sequence[str]) -> int:
    """Strictly validate each corpus file; 0 iff all are valid."""
    any_violation = False
    for path in paths:
        try:
            findings = validate_corpus_file(path)
        except OSError as error:
            print(f"{path}: cannot read: {error}", file=sys.stderr)
            return EXIT_ENVIRONMENT
        if findings:
            any_violation = True
            print(f"{path}: INVALID")
            for finding in findings:
                print(f"  {finding}")
        else:
            print(f"{path}: ok")
    return EXIT_DATA if any_violation else EXIT_OK


def cmd_assess(args: argparse.Namespace, backend: SimilarityBackend) -> int:
    """Run the full pipeline and emit the report in the requested format.

    ``rank`` prints the ranking summary only; ``assess`` adds the per-pair grids.
    """
    try:
        past = load_corpus(args.past, Provenance.PAST, strict=args.strict)
        current = load_corpus(args.current, Provenance.CURRENT, strict=args.strict)
    except OSError as error:
        print(f"cannot read corpus: {error}", file=sys.stderr)
        return EXIT_ENVIRONMENT
    except CorpusFormatError as error:
        print(f"invalid corpus: {error}", file=sys.stderr)
        return EXIT_DATA
    if not past.problems:
        print(f"past corpus {args.past} contains no valid problems", file=sys.stderr)
        return EXIT_DATA

    try:
        report = rank_current_problems(past, current, backend, args.threshold)
    except MissingFixtureError as error:
        print(f"fixture backend failure: {error}", file=sys.stderr)
        return EXIT_ENVIRONMENT
    except BackendUnavailableError as error:
        print(f"embedding backend failure: {error}", file=sys.stderr)
        return EXIT_ENVIRONMENT
    except WordVectorFormatError as error:
        print(f"invalid backend data: {error}", file=sys.stderr)
        return EXIT_DATA

    rendered = render_report(report, args.format, summary_only=args.command == "rank")
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(rendered)
        else:
            sys.stdout.write(rendered)
            # A buffered stdout fails here, not at interpreter exit.
            sys.stdout.flush()
    except OSError as error:
        print(f"cannot write report: {error}", file=sys.stderr)
        return EXIT_ENVIRONMENT
    return EXIT_OK


def cmd_oscore(n: int, m: int) -> int:
    """Print the frequency baseline 1 - n/m at four decimals."""
    try:
        score = o_score(OScoreInput(n=n, m=m))
    except ValueError as error:
        print(f"invalid counts: {error}", file=sys.stderr)
        return EXIT_DATA
    print(f"{score:.4f}")
    return EXIT_OK


def _add_assess_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--past", required=True, help="path to the past-problems corpus (JSONL)")
    parser.add_argument(
        "--current", required=True, help="path to the current-problems corpus (JSONL)"
    )
    parser.add_argument(
        "--backend",
        required=True,
        choices=["lexical", "wordvec", "remote", "fixture"],
        help="similarity backend",
    )
    parser.add_argument("--vectors", help="word-vector file (wordvec backend)")
    parser.add_argument("--fixtures", help="pinned-similarity file (fixture backend)")
    parser.add_argument(
        "--endpoint", help=f"embedding service URL (remote backend; default ${ENV_EMBED_URL})"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_ACTION_THRESHOLD,
        help="action-gate similarity threshold (default %(default)s)",
    )
    parser.add_argument(
        "--format", choices=list(_RENDERERS), default="table", help="output format"
    )
    parser.add_argument(
        "--strict", action="store_true", help="abort on any invalid corpus record"
    )
    parser.add_argument("--out", help="write the report to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sapphire-novelty",
        description="Assess the novelty of design problems modelled at the SAPPhIRE levels.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    validate = subparsers.add_parser("validate", help="strictly validate corpus files")
    validate.add_argument("paths", nargs="+", help="corpus files (JSONL)")

    assess = subparsers.add_parser("assess", help="full per-pair tables plus ranking")
    _add_assess_flags(assess)

    rank = subparsers.add_parser("rank", help="ranking summary only")
    _add_assess_flags(rank)

    oscore = subparsers.add_parser("oscore", help="frequency baseline 1 - n/m")
    oscore.add_argument("n", type=int, help="number of similar ideas in the session")
    oscore.add_argument("m", type=int, help="total ideas in the session")

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Write a warning as one stderr line, its category and message, with no source location."""
    print(f"{category.__name__}: {message}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "validate":
        return cmd_validate(args.paths)
    if args.command == "oscore":
        return cmd_oscore(args.n, args.m)
    # "assess" or "rank": the subparsers admit no other command.
    if not 0.0 <= args.threshold <= 1.0:
        parser.error(f"--threshold must lie in [0, 1], got {args.threshold}")
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        if not args.strict:
            # Lenient mode reports every skipped record, not one per location.
            warnings.simplefilter("always")
        try:
            backend = _build_backend(args, parser)
        except OSError as error:
            print(f"cannot read backend data: {error}", file=sys.stderr)
            return EXIT_ENVIRONMENT
        except ValueError as error:
            print(f"invalid backend data: {error}", file=sys.stderr)
            return EXIT_DATA
        return cmd_assess(args, backend)


if __name__ == "__main__":
    sys.exit(main())
