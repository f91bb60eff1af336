"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import gc
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import UnionFind, border_mvs_exists, load_fixture, rows
from strictchordal import (
    GenParams,
    analyze,
    brute_force_scattering,
    brute_force_toughness,
    build_clique_tree,
    connected_components,
    minimal_vertex_separators,
    random_strictly_chordal,
    restricted_scattering,
    restricted_toughness,
)
from strictchordal.cli import main, _random_capped_graph
from strictchordal.errors import CompleteGraphError
from strictchordal.vulnerability import CASE_COMPLETE


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL  {description}", flush=True)
        raise
    print(f"[criterion {num}] PASS  {description}", flush=True)


def best_analyze_seconds(g, repeats=5):
    analyze(g)  # warm caches outside the clock
    best = None
    for _ in range(repeats):
        tick = time.perf_counter()
        analyze(g)
        elapsed = time.perf_counter() - tick
        if best is None or elapsed < best:
            best = elapsed
    return best


def test_criterion_1_fig2_g1():
    with criterion(1, "fig2_g1 fixture: toughness 1/2, scattering number 1, type A, <10ms"):
        g = load_fixture("fig2_g1.gr")
        report = analyze(g)
        assert report.toughness == Fraction(1, 2)
        assert report.scattering_number == 1
        assert report.case == "type_a"
        assert best_analyze_seconds(g) < 0.010


def test_criterion_2_fig2_g2():
    with criterion(2, "fig2_g2 fixture: toughness 1/4, scattering number 5, "
                      "set {l,m,n,o}, type B, <10ms"):
        g = load_fixture("fig2_g2.gr")
        report = analyze(g)
        assert report.toughness == Fraction(1, 4)
        assert report.scattering_number == 5
        assert report.case == "type_b"
        assert report.scattering_set == frozenset({1, 2, 3, 4})
        assert best_analyze_seconds(g) < 0.010


def test_criterion_3_fig1():
    with criterion(3, "fig1 fixture: toughness 2 (10-set), scattering -4 (7-set), "
                      "tough_ge_1, <10ms, class-fast oracle agrees"):
        g = load_fixture("fig1.gr")
        white = frozenset(range(10))
        black = frozenset(range(10, 17))
        report = analyze(g)
        assert report.toughness == Fraction(2)
        assert report.tough_set == white
        assert report.scattering_number == -4
        assert report.scattering_set == black
        assert report.case == "tough_ge_1"
        assert best_analyze_seconds(g) < 0.010
        seps = rows(minimal_vertex_separators(build_clique_tree(g)))
        assert restricted_scattering(g, seps).value == -4
        assert restricted_toughness(g, seps).value == Fraction(2)


def test_criterion_4_oracle_equivalence():
    with criterion(4, ">=500 generated graphs (n<=14, 25 seeds): analyze matches "
                      "both oracles exactly, all four non-complete cases hit"):
        start = time.perf_counter()
        cases = set()
        total = 0
        for seed in range(25):
            for trial in range(20):
                g, _ = _random_capped_graph(seed, trial, 14)
                report = analyze(g)
                cases.add(report.case)
                try:
                    sc_ref = brute_force_scattering(g, cap=14)
                except CompleteGraphError:
                    assert report.case == CASE_COMPLETE
                    total += 1
                    continue
                tau_ref = brute_force_toughness(g, cap=14)
                assert report.case != CASE_COMPLETE
                assert report.scattering_number == sc_ref.value, (seed, trial)
                assert report.toughness == tau_ref.value, (seed, trial)
                total += 1
        assert total >= 500
        assert {"single_mvs", "tough_ge_1", "type_a", "type_b"} <= cases
        assert time.perf_counter() - start < 300


def test_criterion_5_invariants(corpus):
    with criterion(5, "invariant suite (no oracle): multiplicity identity, "
                      "separator-union scattering sets, sign law, incidence "
                      "tree, border separator, self-witness"):
        for g in corpus:
            ct = build_clique_tree(g)
            seps = minimal_vertex_separators(ct)
            for sep, mu in zip(rows(seps), seps.mult.tolist()):
                count, _ = connected_components(g, sep)
                assert count == mu + 1
            report = analyze(g)
            # the incidence structure is a tree: one edge fewer than nodes,
            # and its edges join every node
            uf = UnionFind(ct.n_cliques + len(seps))
            for s, c in zip(seps.pair_sep.tolist(), seps.pair_clique.tolist()):
                uf.union(c, ct.n_cliques + s)
            assert len(seps.pair_sep) == ct.n_cliques + len(seps) - 1
            assert len({uf.find(v) for v in range(ct.n_cliques + len(seps))}) == 1
            if len(seps) > 1:
                assert border_mvs_exists(seps)
            if report.case == CASE_COMPLETE:
                continue
            count, _ = connected_components(g, report.scattering_set)
            assert count - len(report.scattering_set) == report.scattering_number
            assert (report.toughness >= 1) == (report.scattering_number <= 0)
            used = [sep for sep in rows(seps) if sep <= report.scattering_set]
            assert sum(len(s) for s in used) == len(report.scattering_set)
            assert frozenset().union(*used) == report.scattering_set if used else True


def test_criterion_6_negative_recognition(capsys, tmp_path):
    with criterion(6, "negative recognition: C4 not chordal, gem/dart not "
                      "strictly chordal with two-separator witness, exact exit codes"):
        from conftest import FIXTURE_DIR
        code = main(["analyze", str(FIXTURE_DIR / "c4.gr")])
        err = capsys.readouterr().err
        assert code == 3
        assert "not chordal" in err and "chordless cycle (4 vertices)" in err
        for name in ("gem.gr", "dart.gr"):
            code = main(["analyze", str(FIXTURE_DIR / name)])
            err = capsys.readouterr().err
            assert code == 3
            assert "not strictly chordal" in err
            assert "overlapping separators" in err
        bad = tmp_path / "bad.gr"
        bad.write_text("p edge 2 1\ne 1 1\n")
        assert main(["analyze", str(bad)]) == 2
        capsys.readouterr()
        assert main(["analyze", str(FIXTURE_DIR / "fig2_g2.gr")]) == 0
        capsys.readouterr()


def test_criterion_7_linear_time_band():
    with criterion(7, "desk-scale linearity: per-doubling ratio in [1.5, 3.0] "
                      "for n in {1e5, 2e5, 4e5}; largest under 5 s"):
        sizes = [100_000, 200_000, 400_000]
        graphs = [
            random_strictly_chordal(GenParams(
                seed=7 + i, target_n=size, max_block_size=6, max_twins=1))
            for i, size in enumerate(sizes)
        ]
        analyze(graphs[0])  # warm numpy
        # the sizes take turns in each round and each keeps its best, so a
        # slow phase of the host slows every size alike
        times = [float("inf")] * len(graphs)
        for _ in range(3):
            for i, g in enumerate(graphs):
                gc.disable()
                try:
                    tick = time.perf_counter()
                    analyze(g)
                    times[i] = min(times[i], time.perf_counter() - tick)
                finally:
                    gc.enable()
        print(f"  bench times: {[round(t, 3) for t in times]}", flush=True)
        for prev, cur in zip(times, times[1:]):
            assert 1.5 <= cur / prev <= 3.0, times
        assert times[-1] < 5.0, times
