"""Command-line interface: analyze, oracle, check, gen, bench.

Exit codes: 0 success (complete graphs included), 2 unreadable or malformed
input, bad option values, oversized oracle instances and output files that
cannot be written, 3 input outside the class (not
connected / not chordal / not strictly chordal, witness on stderr),
4 oracle disagreement found by ``check``.  stdout carries only the report;
diagnostics and debug dumps go to stderr.

Only ``analyze``'s path is imported with this module: the parser builder and
the ``oracle``, ``check``, ``gen`` and ``bench`` commands import their
helpers (argparse, the oracles, the generator) when they run.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from .chordal import build_clique_tree, minimal_vertex_separators
from .errors import (
    CompleteGraphError,
    GraphError,
    NotChordalError,
    NotConnectedError,
    NotStrictlyChordalError,
    ParseError,
    TooLargeError,
)
from .graph import Graph, connected_components, parse_graph, serialize_graph
from .vulnerability import CASE_COMPLETE, analyze

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_IN_CLASS = 3
EXIT_MISMATCH = 4


def _load_graph(path: str) -> Graph:
    try:
        text = Path(path).read_text(encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_graph(text)


def _ids(vertices, g: Graph) -> list[int]:
    """Vertex set in the numbering of the input file, sorted."""
    return sorted(v + g.id_base for v in vertices)


def _toughness_doc(tau: Fraction | None):
    if tau is None:
        return "infinite"
    return {
        "num": tau.numerator,
        "den": tau.denominator,
        "decimal": f"{float(tau):g}",
    }


def report_document(g: Graph, report) -> dict:
    """JSON-ready mirror of a VulnerabilityReport, ids in file numbering.
    The separator rows are read from the arrays of ``report.separators``."""
    sc = report.scattering_number
    seps = report.separators
    rows = (seps.indices + g.id_base).tolist()
    bounds = seps.indptr.tolist()
    return {
        "n": g.n,
        "m": g.m,
        "duplicate_edges_collapsed": g.duplicate_edge_count,
        "chordal": True,
        "strictly_chordal": True,
        "case": report.case,
        "clique_count": report.clique_count,
        "separators": [
            {"vertices": rows[a:b], "mu": mu, "boundary_cliques": boundary}
            for a, b, mu, boundary in zip(bounds, bounds[1:], seps.mult.tolist(),
                                          seps.boundary.tolist())
        ],
        "toughness": _toughness_doc(report.toughness),
        "tough_set": _ids(report.tough_set, g),
        "scattering": {
            "number": "undefined" if sc is None else sc,
            "set": _ids(report.scattering_set, g),
        },
        "timings_ms": {k: round(v * 1000, 3) for k, v in report.timings.items()},
    }


def _print_human(doc: dict) -> None:
    print(f"n={doc['n']} m={doc['m']} cliques={doc['clique_count']}"
          f" (duplicate edges collapsed: {doc['duplicate_edges_collapsed']})")
    print(f"case: {doc['case']}")
    tau = doc["toughness"]
    if tau == "infinite":
        print("toughness: infinite (complete graph)")
    else:
        print(f"toughness: {tau['num']}/{tau['den']} (= {tau['decimal']})"
              f"  tough set: {doc['tough_set']}")
    sc = doc["scattering"]
    if sc["number"] == "undefined":
        print("scattering number: undefined (complete graph)")
    else:
        print(f"scattering number: {sc['number']}  scattering set: {sc['set']}")
    if doc["separators"]:
        print("separators (vertices | mu | boundary cliques):")
        for row in doc["separators"]:
            print(f"  {row['vertices']} | {row['mu']} | {row['boundary_cliques']}")
    stages = "  ".join(f"{k}={v}" for k, v in doc["timings_ms"].items())
    print(f"timings_ms: {stages}")


def _dump_structures(g: Graph, report, dump_ct: bool, dump_cb: bool) -> None:
    """Print the report's own clique tree and incidence tree to stderr."""
    ct = report.clique_tree
    base = g.id_base
    if dump_ct:
        for q in range(ct.n_cliques):
            members = " ".join(str(v + base) for v in sorted(ct.clique(q).tolist()))
            print(f"clique {q}: {members}", file=sys.stderr)
        for e, (c, p) in enumerate(zip(ct.edge_child.tolist(), ct.edge_parent.tolist())):
            members = " ".join(str(v + base) for v in sorted(ct.separator_slice(e).tolist()))
            print(f"edge {c} - {p} separator: {members}", file=sys.stderr)
    if dump_cb:
        # Graphviz-style: clique nodes q*, separator nodes s* (table ids),
        # each separator labelled with its vertices in file numbering
        seps = report.separators
        lines = ["graph cb {"]
        lines += [f'  q{q} [shape=box, label="Q{q} card={card}"];'
                  for q, card in enumerate(seps.clique_sizes.tolist())]
        rows, bounds = (seps.indices + base).tolist(), seps.indptr.tolist()
        for i, mu in enumerate(seps.mult.tolist()):
            label = ",".join(map(str, rows[bounds[i]:bounds[i + 1]]))
            lines.append(f'  s{i} [label="S{{{label}}} mu={mu}"];')
        lines += [f"  q{c} -- s{i};"
                  for i, c in zip(seps.pair_sep.tolist(), seps.pair_clique.tolist())]
        lines.append("}")
        print("\n".join(lines), file=sys.stderr)


def _print_class_error(exc, g: Graph) -> int:
    """Diagnose NotConnected/NotChordal/NotStrictlyChordal with witnesses in
    the input file's numbering."""
    base = g.id_base
    if isinstance(exc, NotConnectedError):
        print(f"not connected: {exc}", file=sys.stderr)
    elif isinstance(exc, NotChordalError):
        print(f"not chordal: {exc}", file=sys.stderr)
        if exc.cycle is not None:
            cycle = " ".join(str(v + base) for v in exc.cycle)
            print(f"chordless cycle ({len(exc.cycle)} vertices): {cycle}", file=sys.stderr)
    else:
        print(f"not strictly chordal: {exc}", file=sys.stderr)
        if exc.vertex is not None:
            print(f"witness vertex: {exc.vertex + base}", file=sys.stderr)
        if exc.separators is not None:
            a, b = exc.separators
            print(f"overlapping separators: {sorted(v + base for v in a)}"
                  f" and {sorted(v + base for v in b)}", file=sys.stderr)
    return EXIT_NOT_IN_CLASS


def cmd_analyze(args) -> int:
    g = _load_graph(args.path)
    try:
        report = analyze(g)
    except (NotConnectedError, NotChordalError, NotStrictlyChordalError) as exc:
        return _print_class_error(exc, g)
    if args.dump_cliquetree or args.dump_cb:
        _dump_structures(g, report, args.dump_cliquetree, args.dump_cb)
    doc = report_document(g, report)
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        _print_human(doc)
    return EXIT_OK


def _oracle_result_doc(result, g, kind):
    return {
        "value": _toughness_doc(result.value) if kind == "toughness" else result.value,
        "witness": _ids(result.witness, g),
        "subsets_examined": result.subsets_examined,
    }


def cmd_oracle(args) -> int:
    from . import oracle

    cap = oracle.DEFAULT_CAP if args.cap is None else args.cap
    g = _load_graph(args.path)
    doc = {"n": g.n, "m": g.m, "mode": "separator_unions" if args.class_fast else "full"}
    try:
        if args.class_fast:
            table = minimal_vertex_separators(build_clique_tree(g))
            seps = [table.row(s) for s in range(len(table))]
            sc = oracle.restricted_scattering(g, seps)
            tau = oracle.restricted_toughness(g, seps)
        else:
            sc = oracle.brute_force_scattering(g, cap=cap)
            tau = oracle.brute_force_toughness(g, cap=cap)
        doc["scattering"] = _oracle_result_doc(sc, g, "scattering")
        doc["toughness"] = _oracle_result_doc(tau, g, "toughness")
    except CompleteGraphError:
        doc["scattering"] = {"value": "undefined", "witness": []}
        doc["toughness"] = {"value": "infinite", "witness": []}
    except (NotConnectedError, NotChordalError, NotStrictlyChordalError) as exc:
        return _print_class_error(exc, g)
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def _random_capped_graph(seed: int, trial: int, max_n: int):
    """Deterministic small strictly chordal instance with n <= max_n."""
    import random

    from . import generator

    attempt = 0
    while True:
        rng = random.Random((seed * 1_000_003 + trial) * 1_000_003 + attempt)
        params = generator.GenParams(
            seed=rng.getrandbits(62),
            block_count=rng.randint(1, 4),
            max_block_size=rng.randint(2, 5),
            max_twins=rng.randint(0, 3),
        )
        g = generator.random_strictly_chordal(params)
        if 2 <= g.n <= max_n:
            return g, params
        attempt += 1


def _check_one(g: Graph, max_n: int):
    """None if analyze() agrees with both oracles on g, else a message."""
    from . import oracle

    report = analyze(g)
    try:
        sc_ref = oracle.brute_force_scattering(g, cap=max_n)
    except CompleteGraphError:
        if report.case != CASE_COMPLETE:
            return f"oracle says complete, analyze says {report.case}"
        return None
    if report.case == CASE_COMPLETE:
        return "analyze says complete, oracle found a separator"
    tau_ref = oracle.brute_force_toughness(g, cap=max_n)
    if report.scattering_number != sc_ref.value:
        return f"scattering {report.scattering_number} != oracle {sc_ref.value}"
    if report.toughness != tau_ref.value:
        return f"toughness {report.toughness} != oracle {tau_ref.value}"
    count, _ = connected_components(g, report.scattering_set)
    if count - len(report.scattering_set) != report.scattering_number:
        return "scattering set does not witness the reported number"
    count, _ = connected_components(g, report.tough_set)
    if count < 2 or Fraction(len(report.tough_set), count) != report.toughness:
        return "tough set does not witness the reported toughness"
    return None


def cmd_check(args) -> int:
    from . import oracle

    if args.count < 0:
        raise ValueError(f"--count must be non-negative, got {args.count}")
    if args.max_n < 2:  # no generated graph is smaller
        raise ValueError(f"--max-n must be at least 2, got {args.max_n}")
    if args.max_n > oracle.DEFAULT_CAP:
        raise TooLargeError(f"--max-n {args.max_n} exceeds the oracle cap {oracle.DEFAULT_CAP}")
    for trial in range(args.count):
        g, params = _random_capped_graph(args.seed, trial, args.max_n)
        message = _check_one(g, args.max_n)
        if message is not None:
            print(f"trial {trial} ({params}): {message}", file=sys.stderr)
            out = Path(args.dump_dir) / f"counterexample-trial{trial}.gr"
            out.write_text(serialize_graph(g))
            print(f"counterexample written to {out}", file=sys.stderr)
            return EXIT_MISMATCH
    print(f"{args.count}/{args.count} agree")
    return EXIT_OK


def cmd_gen(args) -> int:
    from . import generator

    params = generator.GenParams(
        seed=args.seed,
        block_count=args.blocks,
        max_block_size=args.max_block,
        max_twins=args.max_twins,
        target_n=args.target_n,
    )
    g = generator.random_strictly_chordal(params)
    text = serialize_graph(g)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote n={g.n} m={g.m} to {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_bench(args) -> int:
    import gc

    from . import generator

    sizes = [int(tok) for tok in args.sizes.split(",") if tok]
    if not sizes:
        raise ParseError("--sizes needs a comma-separated list of target sizes")
    # GenParams checks each size, so a bad one stops the run before any output
    runs = [generator.GenParams(seed=args.seed + i, target_n=size,
                                max_block_size=args.max_block, max_twins=args.max_twins)
            for i, size in enumerate(sizes)]
    # warm up interpreter and numpy before timing; the stage columns are the
    # stages analyze() timed, in its order
    warm = generator.random_strictly_chordal(
        generator.GenParams(seed=args.seed, target_n=2000,
                            max_block_size=args.max_block, max_twins=args.max_twins))
    stage_names = list(analyze(warm).timings)
    print(f"{'target':>9} {'n':>9} {'m':>10} {'case':>11} {'time_s':>9} "
          f"{'us_per_nm':>10} {'parse_s':>9} {'ratio':>6} "
          + " ".join(f"{stage:>13}" for stage in stage_names))
    prev = None
    for size, params in zip(sizes, runs):
        g = generator.random_strictly_chordal(params)
        text = serialize_graph(g)
        best = best_parse = float("inf")
        for _ in range(max(1, args.repeat)):
            # timeit-style: collector suspended while the clock runs
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                tick = time.perf_counter()
                report = analyze(g)
                elapsed = time.perf_counter() - tick
                case = report.case
                if elapsed < best:
                    best = elapsed
                    stages = report.timings
                del report  # keep what the row prints, not the clique tree
                tick = time.perf_counter()
                parse_graph(text)
                best_parse = min(best_parse, time.perf_counter() - tick)
            finally:
                if gc_was_enabled:
                    gc.enable()
        ratio = "" if prev is None else f"{best / prev:.2f}"
        prev = best
        print(f"{size:>9} {g.n:>9} {g.m:>10} {case:>11} {best:>9.3f} "
              f"{best / (g.n + g.m) * 1e6:>10.3f} {best_parse:>9.3f} {ratio:>6} "
              + " ".join(f"{stages[stage]:>13.3f}" for stage in stage_names))
    return EXIT_OK


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="strictchordal",
        description="Toughness, scattering number and scattering sets of "
                    "strictly chordal graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze a graph file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--dump-cliquetree", action="store_true",
                   help="dump cliques and tree edges to stderr")
    p.add_argument("--dump-cb", action="store_true",
                   help="dump the clique/separator tree to stderr")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("oracle", help="brute-force scattering number and toughness")
    p.add_argument("path")
    # None stands for oracle.DEFAULT_CAP, so building the parser does not
    # import the oracles; a test holds this help text to that value
    p.add_argument("--cap", type=int, default=None,
                   help="size cap in vertices (default 20)")
    p.add_argument("--class-fast", action="store_true",
                   help="restrict candidates to unions of minimal vertex separators")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("check", help="compare analyze against the oracles on random graphs")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dump-dir", default=".", help="where to write counterexamples")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gen", help="generate a random strictly chordal graph")
    p.add_argument("--blocks", type=int, default=8)
    p.add_argument("--max-block", type=int, default=4)
    p.add_argument("--max-twins", type=int, default=2)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--target-n", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="time analyze() on generated graphs")
    p.add_argument("--sizes", required=True, help="comma-separated target sizes")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-block", type=int, default=6)
    p.add_argument("--max-twins", type=int, default=1)
    p.add_argument("--repeat", type=int, default=1)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # ValueError: bad option values; OSError: an output file cannot be written
    except (GraphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run() -> None:
    sys.exit(main())
