"""Self-check of the benchmark's checker and reference answers.

A corrupted answer must be counted as failed (it raises error_rate); a
correct answer or a correct rejection must not.
"""

from __future__ import annotations

import copy
import functools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import check  # noqa: E402
import gen  # noqa: E402
from run import Judge, Pipeline  # noqa: E402
from spans import NullTracer  # noqa: E402

# Type-B scattering numbers the program reported on these inputs when this
# benchmark was added; the reference dynamic program must keep agreeing.
PINNED_TYPEB = {1: 313, 2: 340, 3: 343}


@pytest.fixture(scope="module")
def pipe():
    return Pipeline()


@functools.cache
def _corpus():
    return gen.small_corpus(7, count=300)


def _first(kind=gen.IN_CLASS, case=None):
    for inp in _corpus():
        if inp.expected.kind == kind and (case is None or inp.expected.case == case):
            return inp
    raise LookupError(kind, case)


def _judge_one(inp, kind, payload):
    judge = Judge([inp])
    judge(0, kind, payload)
    return judge.failed / judge.attempted


def test_correct_reports_pass_for_every_case(pipe):
    for case in (gen.COMPLETE, gen.SINGLE_MVS, gen.TOUGH_GE_1, gen.TYPE_A, gen.TYPE_B):
        inp = _first(case=case)
        kind, payload, _ = pipe.process(inp, NullTracer())
        assert _judge_one(inp, kind, payload) == 0, case


def _corruptions(doc):
    """Reports with one answer altered."""
    out = []
    bad = copy.deepcopy(doc)
    bad["toughness"]["num"] += 1
    out.append(("toughness", bad))
    bad = copy.deepcopy(doc)
    bad["scattering"]["number"] += 1
    out.append(("scattering number", bad))
    bad = copy.deepcopy(doc)
    bad["scattering"]["set"] = bad["scattering"]["set"][1:]
    out.append(("scattering set", bad))
    other = [row["vertices"] for row in doc["separators"] if row["vertices"] != doc["tough_set"]]
    bad = copy.deepcopy(doc)
    bad["scattering"]["set"] = other[0]
    out.append(("scattering set swapped", bad))
    bad = copy.deepcopy(doc)
    bad["case"] = gen.TYPE_A
    out.append(("case", bad))
    bad = copy.deepcopy(doc)
    bad["separators"][0]["mu"] += 1
    out.append(("separator table", bad))
    return out


def test_corrupted_answers_raise_error_rate(pipe):
    inp = _first(case=gen.TYPE_B)
    kind, (doc, size), _ = pipe.process(inp, NullTracer())
    for what, bad in _corruptions(doc):
        assert _judge_one(inp, kind, (bad, size)) == 1, what


def test_tough_set_must_attain_the_toughness(pipe):
    inp = _first(case=gen.TYPE_B)
    kind, (doc, size), _ = pipe.process(inp, NullTracer())
    tau = Fraction(doc["toughness"]["num"], doc["toughness"]["den"])
    bad = copy.deepcopy(doc)
    bad["tough_set"] = next(row["vertices"] for row in doc["separators"]
                            if Fraction(len(row["vertices"]), row["mu"] + 1) != tau)
    assert _judge_one(inp, kind, (bad, size)) == 1


def test_repeated_output_must_match_the_first(pipe):
    inp = _first(case=gen.TYPE_B)
    judge = Judge([inp])
    kind, payload, _ = pipe.process(inp, NullTracer())
    judge(0, kind, payload)
    kind, (doc, size), _ = pipe.process(inp, NullTracer())
    doc["clique_count"] += 1
    judge(0, kind, (doc, size))
    assert (judge.attempted, judge.failed) == (2, 1)


@pytest.mark.parametrize("kind", [gen.DISCONNECTED, gen.CHORDLESS, gen.OVERLAP])
def test_correct_rejections_do_not_count_as_errors(pipe, kind):
    inp = _first(kind)
    got, witness, _ = pipe.process(inp, NullTracer())
    assert got == kind
    assert _judge_one(inp, got, witness) == 0


def test_corrupted_witnesses_raise_error_rate(pipe):
    inp = _first(gen.CHORDLESS)
    _, cycle, _ = pipe.process(inp, NullTracer())
    assert _judge_one(inp, gen.CHORDLESS, cycle[:-1]) == 1
    assert _judge_one(inp, gen.CHORDLESS, None) == 1
    assert _judge_one(inp, gen.OVERLAP, cycle) == 1

    inp = _first(gen.OVERLAP)
    _, (vertex, first, second), _ = pipe.process(inp, NullTracer())
    outside = next(v for v in range(inp.id_base, inp.n + inp.id_base)
                   if v not in first or v not in second)
    assert _judge_one(inp, gen.OVERLAP, [outside, first, second]) == 1
    assert _judge_one(inp, gen.OVERLAP, [vertex, first, first]) == 1
    beyond = inp.n + inp.id_base
    for bad in ([*first, beyond], [*first, inp.id_base - 1]):
        assert _judge_one(inp, gen.OVERLAP, [vertex, bad, second]) == 1
    assert _judge_one(inp, gen.IN_CLASS, ({}, 0)) == 1


def test_reference_matches_brute_force_oracle():
    from strictchordal import brute_force_scattering, brute_force_toughness, parse_graph

    rng = random.Random(3)
    cases = set()
    for trial in range(150):
        blocks, n_base = gen._grow_blocks(rng, rng.randint(3, 7), 2, 4, gen._attach_uniform)
        twins = [rng.choice((0, 0, 1, 2)) for _ in range(n_base)]
        inp = gen._in_class(f"tiny/{trial}", rng, blocks, n_base, twins)
        exp = inp.expected
        if exp.case == gen.COMPLETE or inp.n > 12:
            continue
        g = parse_graph(inp.text)
        assert brute_force_scattering(g, cap=12).value == exp.scattering_number, inp.name
        assert brute_force_toughness(g, cap=12).value == exp.toughness, inp.name
        cases.add(exp.case)
    assert cases == {gen.SINGLE_MVS, gen.TOUGH_GE_1, gen.TYPE_A, gen.TYPE_B}


def test_same_seed_gives_same_inputs():
    first = [inp.text for inp in gen.small_corpus(5, count=40)]
    assert first == [inp.text for inp in gen.small_corpus(5, count=40)]
    assert first != [inp.text for inp in gen.small_corpus(6, count=40)]


@pytest.mark.parametrize("seed", sorted(PINNED_TYPEB))
def test_typeb_large_scattering_number_is_pinned(seed):
    exp = gen.typeb_large(seed)[0].expected
    assert exp.case == gen.TYPE_B
    assert exp.scattering_number == PINNED_TYPEB[seed]
