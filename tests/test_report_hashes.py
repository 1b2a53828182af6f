"""Golden SHA-256s of every algebra report over the shared test corpus.

Subspaces are canonical and rendering is deterministic, so a refactor that
keeps the engine's behaviour keeps these hashes byte for byte.  Regenerate
the JSON only for an intended change of a report::

    PYTHONPATH=src python tests/test_report_hashes.py
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from conftest import build_corpus
from ringstruct.documents import document_of
from ringstruct.reports import render, run_report

GOLDEN = Path(__file__).parent / "report_hashes.json"
COMMANDS = ("classify", "radical", "idempotents", "unitize")


def corpus_report_hashes(corpus) -> dict:
    """``{"<index>:<name>:<command>": sha256 of the JSON report}``."""
    hashes = {}
    for index, alg in enumerate(corpus):
        doc = document_of(alg)
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


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(corpus_report_hashes(build_corpus()), indent=1, sort_keys=True) + "\n")
