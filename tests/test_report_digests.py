"""Reports stay byte-identical: sha256 digests of ``report_document`` minus
``timings_ms``, serialised as ``analyze --json`` prints them, for the in-class
fixtures and 300 generator graphs.

The digests in ``tests/data/report_digests.json`` were written by the version
before the separator table became arrays.  Rewrite them only for a change
meant to alter reports, by running this file as a script:

    PYTHONPATH=src python tests/test_report_digests.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

DATA = Path(__file__).parent / "data" / "report_digests.json"
FIXTURE_DIR = Path(__file__).parent / "fixtures"
IN_CLASS_FIXTURES = ("fig1.gr", "fig2_g1.gr", "fig2_g2.gr", "k7.gr", "path3_plain.txt")
GENERATED = 300


def generator_params(seed):
    from strictchordal import GenParams

    return GenParams(seed=seed, block_count=1 + seed % 12,
                     max_block_size=2 + seed % 4, max_twins=seed % 3)


def digest(g) -> str:
    from strictchordal import analyze
    from strictchordal.cli import report_document

    doc = report_document(g, analyze(g))
    del doc["timings_ms"]
    return hashlib.sha256(json.dumps(doc, indent=2).encode()).hexdigest()


def current_digests() -> dict:
    from strictchordal import parse_graph, random_strictly_chordal

    return {
        "fixtures": {name: digest(parse_graph((FIXTURE_DIR / name).read_text()))
                     for name in IN_CLASS_FIXTURES},
        "generator": [digest(random_strictly_chordal(generator_params(seed)))
                      for seed in range(GENERATED)],
    }


def test_reports_match_recorded_digests():
    expected = json.loads(DATA.read_text())
    actual = current_digests()
    assert actual["fixtures"] == expected["fixtures"]
    changed = [seed for seed, (a, b) in enumerate(zip(actual["generator"], expected["generator"]))
               if a != b]
    assert not changed, f"reports differ for generator seeds {changed[:10]}"
    assert len(actual["generator"]) == len(expected["generator"])


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(current_digests(), indent=1) + "\n")
    print(f"wrote {DATA}", file=sys.stderr)
