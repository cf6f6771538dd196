# Corpus files: JSON-Lines storage and CSV survey import.
#
# A corpus is one JSONL file, one problem object per line, with past and
# current problems kept in separate files. Surveys arrive as CSV and import
# as a current-role corpus.

import tempfile
from pathlib import Path

from sapphire_novelty import Provenance, import_survey_csv, load_corpus, save_corpus
from sapphire_novelty.data import current_corpus_path, past_corpus_path

# The bundled electric-kettle corpora: two past problems from patent-style
# sources, three current problems from a stakeholder survey.
past = load_corpus(past_corpus_path(), Provenance.PAST)
current = load_corpus(current_corpus_path(), Provenance.CURRENT)
for corpus in (past, current):
    print(f"{corpus.name} ({corpus.role.value}): {[p.id for p in corpus.problems]}")

# Round-trip: save writes canonical key order, one line per problem, and a
# strict reload reproduces the corpus exactly.
with tempfile.TemporaryDirectory() as directory:
    workdir = Path(directory)
    copy_path = workdir / f"{past.name}.jsonl"
    save_corpus(past, copy_path)
    print("round-trip identical:", load_corpus(copy_path, Provenance.PAST, strict=True) == past)

    # Survey import: header id,label,source,action,... - construct columns after
    # action are optional, empty cells become absent levels, and rows without an
    # id get CUR-<row>.
    survey = workdir / "survey.csv"
    survey.write_text(
        "id,label,source,action,state_change,phenomena,effect,input,organ,parts\n"
        ",When water overboils it spills out,respondent 4,spilling of liquid,"
        "static to movable liquid,,,,,\n"
        ",The conical shape makes it difficult to wash,respondent 8,hard to clean shape,"
        ",,,,conical body,\n",
        encoding="utf-8",
    )
    imported = import_survey_csv(survey, context="electric kettle")
    for problem in imported.problems:
        print(problem.id, "->", problem.label)
