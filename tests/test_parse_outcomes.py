"""Parse outcomes stay the same: for seeded random ASCII texts in both
formats, the message of the ParseError each faulty text raises, or a short
digest of the graph each valid one parses to.

The table in ``tests/data/parse_outcomes.json`` was written by the version
that still had a line-by-line parser beside the numpy scan, and that parser
is gone: the table is now its only record.  Rewrite it only for a change
meant to alter parse outcomes, by running this file as a script:

    PYTHONPATH=src python tests/test_parse_outcomes.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

DATA = Path(__file__).parent / "data" / "parse_outcomes.json"
SEED = 20261018
TEXTS = 2400

# Numbers with leading zeros, signs, 19-digit values and junk; the format's
# words; every ASCII gap inside a line and every ASCII line break, with CRLF
# and blank lines among them.
NUMS = ["0", "1", "2", "3", "4", "-1", "-0", "007", "1" * 19, "0" * 19 + "2",
        "1" + "0" * 18 + "3", "+1", "1_0", "0:", "/"]
WORDS = ["p", "e", "c", "edge"]
GAPS = [" ", "\t", "\x1f", " \t ", "\t\x1f "]
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
          "\n\n", "\n \n", "\r\n\r\n", "\n\r", "\r\r\n"]


def random_text(rng: random.Random) -> str:
    dimacs = rng.random() < 0.5
    ids = ["1", "2", "3", "4"] if dimacs else ["0", "1", "2", "3"]

    def now_and_then_wrong_arity(line):
        r = rng.random()
        return line + ["1"] if r < 0.03 else line[:-1] if r < 0.06 else line

    def edge():
        pair = rng.sample(ids, 2) if rng.random() < 0.8 else [rng.choice(ids), rng.choice(NUMS)]
        rng.shuffle(pair)
        return (["e"] if dimacs else []) + pair

    def junk():
        return rng.choice([
            lambda: ["e", rng.choice(NUMS), rng.choice(NUMS)],
            lambda: [rng.choice(NUMS), rng.choice(NUMS)],
            lambda: ["c", rng.choice(WORDS), rng.choice(NUMS)],
            lambda: ["p", "edge", rng.choice(NUMS), rng.choice(NUMS)],
            lambda: [rng.choice(WORDS + NUMS) for _ in range(rng.randint(0, 4))],
        ])()

    n = rng.choice(["12"] * 20 + ["4", "0", "-1", "10000001", "012"])
    header = ["p", "edge", n, rng.choice(["2", "0", "99"])] if dimacs else [n, "2"]
    lines = [now_and_then_wrong_arity(header)] if rng.random() < 0.95 else []
    for _ in range(rng.randint(0, 6)):
        lines.append(now_and_then_wrong_arity(edge()) if rng.random() < 0.9 else junk())
    for _ in range(rng.choice([0, 0, 1, 2])):
        lines.insert(rng.randint(0, len(lines)), ["c", "x"])
    text = rng.choice(["", "", "\n", " ", "\r\n"])
    for line in lines:
        text += "".join((rng.choice(GAPS) if i else "") + token for i, token in enumerate(line))
        text += rng.choice(BREAKS)
    return text


def outcome(text: str) -> str:
    from strictchordal import parse_graph
    from strictchordal.errors import ParseError

    try:
        g = parse_graph(text)
    except ParseError as exc:
        return f"error {exc}"
    indptr, indices = g.csr()
    key = repr((g.n, g.m, g.duplicate_edge_count, g.id_base, indptr.tolist(), indices.tolist()))
    return f"graph {hashlib.sha256(key.encode()).hexdigest()[:16]}"


def current_outcomes() -> list:
    rng = random.Random(SEED)
    texts = [random_text(rng) for _ in range(TEXTS)]
    return [[text, outcome(text)] for text in texts]


def test_parse_outcomes_match_recorded_table():
    expected = json.loads(DATA.read_text())
    assert len(expected) >= 2000
    changed = [(text, want, got) for text, want in expected if (got := outcome(text)) != want]
    assert not changed, f"{len(changed)} outcomes differ, first {changed[:3]}"


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    rows = ",\n".join(json.dumps(row) for row in current_outcomes())
    DATA.write_text(f"[\n{rows}\n]\n")
    print(f"wrote {DATA}", file=sys.stderr)
