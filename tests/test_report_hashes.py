"""Golden SHA-256s of every algebra report over the shared test corpus, in
the standard basis and in one seeded rebased basis per algebra.

Subspaces are canonical and rendering is deterministic, so a refactor that
keeps the engine's behaviour keeps these hashes byte for byte.  The rebased
copies (``oracles.rebase_document`` with ``Random(f"rb:{index}")``) have dense
structure constants, which the standard corpus lacks.  Regenerate
the JSON files only for an intended change of a report::

    PYTHONPATH=src python tests/test_report_hashes.py
"""

import hashlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from conftest import build_corpus
from oracles import rebase_document
from ringstruct.documents import document_of
from ringstruct.reports import render, run_report

GOLDEN = Path(__file__).parent / "report_hashes.json"
GOLDEN_REBASED = Path(__file__).parent / "report_hashes_rebased.json"
COMMANDS = ("classify", "radical", "idempotents", "unitize")


def corpus_report_hashes(corpus, rebased: bool = False) -> dict:
    """``{"<index>:<name>:<command>": sha256 of the JSON report}``."""
    hashes = {}
    for index, alg in enumerate(corpus):
        doc = document_of(alg)
        if rebased:
            doc = rebase_document(doc, random.Random(f"rb:{index}"))
        for command in COMMANDS:
            rendered = render(run_report(doc, command), "json")
            hashes[f"{index}:{alg.name}:{command}"] = hashlib.sha256(rendered.encode()).hexdigest()
    return hashes


def test_reports_match_golden_hashes(corpus):
    golden = json.loads(GOLDEN.read_text())
    got = corpus_report_hashes(corpus)
    assert len(golden) == len(corpus) * len(COMMANDS)
    assert got.keys() == golden.keys()
    changed = [key for key in golden if got[key] != golden[key]]
    assert not changed, f"reports changed: {changed}"


def test_rebased_reports_match_golden_hashes(corpus):
    golden = json.loads(GOLDEN_REBASED.read_text())
    got = corpus_report_hashes(corpus, rebased=True)
    assert len(golden) == len(corpus) * len(COMMANDS)
    assert got.keys() == golden.keys()
    changed = [key for key in golden if got[key] != golden[key]]
    assert not changed, f"rebased reports changed: {changed}"


if __name__ == "__main__":
    corpus = build_corpus()
    for path, rebased in ((GOLDEN, False), (GOLDEN_REBASED, True)):
        hashes = corpus_report_hashes(corpus, rebased)
        path.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
