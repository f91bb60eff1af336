"""Command-line interface: analyze, oracle, check, gen, bench.

Exit codes: 0 success (complete graphs included), 2 unreadable or malformed
input, bad option values, oversized oracle instances and output files that
cannot be written, 3 input outside the class (not
connected / not chordal / not strictly chordal, witness on stderr),
4 oracle disagreement found by ``check``.  stdout carries only the report;
diagnostics and debug dumps go to stderr.

This module holds ``analyze``'s path and the parser.  The ``oracle``,
``check``, ``gen`` and ``bench`` commands live in ``commands``, which
``main`` imports only when one of them runs, so ``analyze`` compiles none
of them; the parser builder imports argparse when it runs.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from .errors import GraphError, NotChordalError, NotConnectedError, NotStrictlyChordalError
from .errors import ParseError
from .graph import Graph, parse_graph
from .vulnerability import analyze

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_IN_CLASS = 3
EXIT_MISMATCH = 4


def _load_graph(path: str) -> Graph:
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as file:
            text = file.read()
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
        for e, p in enumerate(ct.edge_parent.tolist()):
            members = " ".join(str(v + base) for v in sorted(ct.separator_slice(e).tolist()))
            print(f"edge {e + 1} - {p} separator: {members}", file=sys.stderr)
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

    p = sub.add_parser("oracle", help="brute-force scattering number and toughness")
    p.add_argument("path")
    p.add_argument("--class-fast", action="store_true",
                   help="restrict candidates to unions of minimal vertex separators")

    p = sub.add_parser("check", help="compare analyze against the oracles on random graphs")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dump-dir", default=".", help="where to write counterexamples")

    p = sub.add_parser("gen", help="generate a random strictly chordal graph")
    p.add_argument("--blocks", type=int, default=8)
    p.add_argument("--max-block", type=int, default=4)
    p.add_argument("--max-twins", type=int, default=2)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--target-n", type=int, default=None)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("bench", help="time analyze() on generated graphs")
    p.add_argument("--sizes", required=True, help="comma-separated target sizes")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the table and the environment to PATH as JSON")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "analyze":
        command = cmd_analyze
    else:
        from . import commands

        command = getattr(commands, f"cmd_{args.command}")
    try:
        return command(args)
    # ValueError: bad option values; OSError: an output file cannot be written
    except (GraphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run() -> None:
    sys.exit(main())
