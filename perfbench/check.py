"""Checks of the program's answers that share no code with the program.

The reference values come from the construction in ``gen``; witness sets
are certified with this module's own component count over the input's
edges, never with ``strictchordal.graph.connected_components``.
"""

from __future__ import annotations

from fractions import Fraction

from gen import CHORDLESS, COMPLETE, DISCONNECTED, IN_CLASS, OVERLAP


def component_labels(n, eu, ev, removed=()):
    """(count, labels) of the graph on 0..n-1 minus ``removed``: a
    union-find over the edges; ``labels[v]`` is the root of v's component,
    or -1 for a removed vertex."""
    gone = set(removed)
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in zip(eu.tolist(), ev.tolist()):
        if a not in gone and b not in gone:
            parent[find(a)] = find(b)
    labels = [-1 if v in gone else find(v) for v in range(n)]
    return len({root for root in labels if root >= 0}), labels


def _zero_based(ids, base):
    return sorted(v - base for v in ids)


def check_report(inp, doc) -> str | None:
    """None if the JSON report ``doc`` (``timings_ms`` removed) is right for
    ``inp``, else what is wrong."""
    exp = inp.expected
    base = inp.id_base
    if exp.kind != IN_CLASS:
        return f"expected rejection ({exp.kind}), got a report"
    if (doc["n"], doc["m"], doc["duplicate_edges_collapsed"]) != (inp.n, inp.m, 0):
        return f"n/m/duplicates {doc['n']}/{doc['m']}/{doc['duplicate_edges_collapsed']}"
    if not (doc["chordal"] and doc["strictly_chordal"]):
        return "in-class input not reported chordal and strictly chordal"
    if doc["case"] != exp.case:
        return f"case {doc['case']} != {exp.case}"
    if doc["clique_count"] != exp.clique_count:
        return f"clique_count {doc['clique_count']} != {exp.clique_count}"
    table = sorted((tuple(_zero_based(row["vertices"], base)), row["mu"],
                    row["boundary_cliques"]) for row in doc["separators"])
    if tuple(table) != exp.separators:
        return "separator table differs from the construction"
    sc = doc["scattering"]
    if exp.case == COMPLETE:
        if (doc["toughness"], doc["tough_set"], sc["number"], sc["set"]) != (
                "infinite", [], "undefined", []):
            return "complete graph not reported as infinite/undefined"
        return None
    tau = doc["toughness"]
    if Fraction(tau["num"], tau["den"]) != exp.toughness or tau["den"] != exp.toughness.denominator:
        return f"toughness {tau['num']}/{tau['den']} != {exp.toughness}"
    if tau["decimal"] != f"{float(exp.toughness):g}":
        return f"toughness decimal {tau['decimal']!r}"
    if sc["number"] != exp.scattering_number:
        return f"scattering number {sc['number']} != {exp.scattering_number}"
    mu_of = {s: mu for s, mu, _ in exp.separators}
    tough = tuple(_zero_based(doc["tough_set"], base))
    if tough not in mu_of or Fraction(len(tough), mu_of[tough] + 1) != exp.toughness:
        return "tough set is not a separator attaining the toughness"
    count, _ = component_labels(inp.n, inp.eu, inp.ev, tough)
    if count < 2 or Fraction(len(tough), count) != exp.toughness:
        return "tough set does not witness the toughness"
    chosen = _zero_based(sc["set"], base)
    owner = {v: s for s in mu_of for v in s}
    if len(set(chosen)) != len(chosen) or any(v not in owner for v in chosen) or \
            sum(len(s) for s in {owner[v] for v in chosen}) != len(chosen):
        return "scattering set is not a union of separators"
    count, _ = component_labels(inp.n, inp.eu, inp.ev, chosen)
    if count - len(chosen) != exp.scattering_number:
        return f"scattering set gives {count - len(chosen)}, not {exp.scattering_number}"
    return None


def _edge_set(inp):
    return {(min(a, b), max(a, b)) for a, b in zip(inp.eu.tolist(), inp.ev.tolist())}


def _is_minimal_separator(inp, sep) -> bool:
    """G - sep has at least two full components (every vertex of sep has a
    neighbour in them)."""
    _, labels = component_labels(inp.n, inp.eu, inp.ev, sep)
    in_sep = set(sep)
    touched = {}  # component root -> vertices of sep with a neighbour in it
    for a, b in zip(inp.eu.tolist(), inp.ev.tolist()):
        for u, v in ((a, b), (b, a)):
            if u in in_sep and labels[v] >= 0:
                touched.setdefault(labels[v], set()).add(u)
    return sum(1 for seen in touched.values() if len(seen) == len(in_sep)) >= 2


def check_rejection(inp, kind, witness) -> str | None:
    """None if rejecting ``inp`` as ``kind`` with ``witness`` (file ids, as
    the CLI prints them) is right, else what is wrong."""
    exp = inp.expected
    if kind != exp.kind:
        return f"rejected as {kind}, expected {exp.kind}"
    base = inp.id_base
    if kind == DISCONNECTED:
        count, _ = component_labels(inp.n, inp.eu, inp.ev)
        return None if count >= 2 else "connected input rejected as disconnected"
    if kind == CHORDLESS:
        if witness is None:
            return "no chordless cycle reported"
        cycle = [v - base for v in witness]
        k = len(cycle)
        if k < 4 or len(set(cycle)) != k or not all(0 <= v < inp.n for v in cycle):
            return f"bad cycle {witness}"
        edges = _edge_set(inp)
        for i in range(k):
            for j in range(i + 1, k):
                adjacent = (min(cycle[i], cycle[j]), max(cycle[i], cycle[j])) in edges
                if adjacent != (j == i + 1 or (i == 0 and j == k - 1)):
                    return f"cycle {witness} is not a chordless cycle of the input"
        return None
    if kind == OVERLAP:
        vertex, first, second = witness
        if None in (vertex, first, second):
            return "no overlap witness reported"
        first = [v - base for v in first]
        second = [v - base for v in second]
        if not all(0 <= v < inp.n for v in first + second):
            return f"overlap witness {witness} names a vertex outside the input"
        if first == second or vertex - base not in first or vertex - base not in second:
            return f"vertex {vertex} does not lie in two distinct reported separators"
        if not (_is_minimal_separator(inp, first) and _is_minimal_separator(inp, second)):
            return "reported sets are not both minimal vertex separators"
        return None
    return f"unexpected rejection kind {kind}"
