"""Brute-force reference computations straight from the raw definitions.

The scattering number is the maximum of omega(G-S) - |S| and the toughness
the minimum of |S| / omega(G-S), both over every vertex subset S whose
removal leaves at least two components.  Subsets are enumerated as bitmasks;
component counts come from a memoized bitset table indexed by survivor set.
Exponential: guarded by a size cap, ``DEFAULT_CAP`` vertices unless the
caller passes another.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CompleteGraphError, TooLargeError
from .graph import Graph

DEFAULT_CAP = 20


@dataclass(frozen=True)
class OracleResult:
    """value is an int (scattering) or Fraction (toughness); witness is the
    subset attaining it, the lexicographically smallest by bitmask on ties;
    subsets_examined counts the enumerated candidate subsets."""

    value: object
    witness: frozenset
    subsets_examined: int


def _union_masks(vertex_sets) -> list[int]:
    masks = []
    for vs in vertex_sets:
        m = 0
        for v in vs:
            m |= 1 << v
        masks.append(m)
    return masks


def adjacency_masks(g: Graph) -> list[int]:
    """Neighbourhoods as bitmasks, one per CSR row."""
    indptr, indices = g.csr()
    flat = indices.tolist()
    bounds = indptr.tolist()
    return _union_masks(flat[a:b] for a, b in zip(bounds, bounds[1:]))


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _component_of_lowest(adjmask, survivors: int) -> int:
    """Bitmask of the component of the lowest survivor (survivors nonzero)."""
    comp = frontier = survivors & -survivors
    while frontier:
        reach = 0
        f = frontier
        while f:
            low = f & -f
            reach |= adjmask[low.bit_length() - 1]
            f ^= low
        frontier = reach & survivors & ~comp
        comp |= frontier
    return comp


def count_components_mask(adjmask, survivors: int) -> int:
    """Number of connected components induced on the survivor bitmask."""
    count = 0
    while survivors:
        survivors &= ~_component_of_lowest(adjmask, survivors)
        count += 1
    return count


def component_count_table(g: Graph) -> list[int]:
    """components of G[T] for every survivor bitmask T (list index = T).

    Built by peeling the component of the lowest surviving vertex and
    looking up the rest, so each entry costs one bitset reachability pass.
    """
    adjmask = adjacency_masks(g)
    table = [0] * (1 << g.n)
    for t in range(1, 1 << g.n):
        table[t] = 1 + table[t & ~_component_of_lowest(adjmask, t)]
    return table


def _best(candidates, what: str, better):
    """The best of ``candidates``, pairs (S as a bitmask, omega(G-S)), among
    those with at least two components, as (|S|, omega(G-S), S as a vertex
    set).  ``better(a, b)`` says whether a beats b, each an
    (|S|, omega(G-S), S) triple; ties fall to the smallest bitmask."""
    best = None
    for s_mask, comp in candidates:
        if comp >= 2:
            cur = (s_mask.bit_count(), comp, s_mask)
            if best is None or better(cur, best) or (not better(best, cur) and s_mask < best[2]):
                best = cur
    if best is None:
        raise CompleteGraphError(f"no {what} disconnects the graph")
    return best[0], best[1], frozenset(_bits(best[2]))


def _more_scattered(a, b) -> bool:
    return a[1] - a[0] > b[1] - b[0]


def _less_tough(a, b) -> bool:
    # a[0]/a[1] < b[0]/b[1] by cross multiplication, exactly
    return a[0] * b[1] < b[0] * a[1]


def _all_subsets(g: Graph, cap):
    """(S, omega(G-S)) for every vertex subset S, as bitmasks in ascending
    order; raises TooLargeError beyond the cap."""
    n = g.n
    if n > cap:
        raise TooLargeError(f"n={n} exceeds the oracle cap {cap}")
    table = component_count_table(g)
    full = (1 << n) - 1
    for s_mask in range(1 << n):
        yield s_mask, table[full ^ s_mask]


def brute_force_scattering(g: Graph, cap=DEFAULT_CAP) -> OracleResult:
    """Exact scattering number by enumerating all 2^n vertex subsets.

    Raises TooLargeError beyond the cap and CompleteGraphError when no
    subset disconnects the graph.
    """
    size, comp, witness = _best(_all_subsets(g, cap), "subset", _more_scattered)
    return OracleResult(comp - size, witness, 1 << g.n)


def brute_force_toughness(g: Graph, cap=DEFAULT_CAP) -> OracleResult:
    """Exact toughness by enumerating all 2^n vertex subsets.

    Raises TooLargeError beyond the cap and CompleteGraphError when no
    subset disconnects the graph (toughness is infinite).
    """
    size, comp, witness = _best(_all_subsets(g, cap), "subset", _less_tough)
    return OracleResult(Fraction(size, comp), witness, 1 << g.n)


def _unions(g: Graph, separator_sets, max_sets):
    """(S, omega(G-S)) for every nonempty union S of the given vertex sets,
    one per family of sets; raises TooLargeError beyond ``max_sets`` sets."""
    k = len(separator_sets)
    if k > max_sets:
        raise TooLargeError(f"{k} separator sets exceed the union cap {max_sets}")
    adjmask = adjacency_masks(g)
    full = (1 << g.n) - 1
    masks = _union_masks(separator_sets)
    union = [0] * (1 << k)
    for fam in range(1, 1 << k):
        low = fam & -fam
        s_mask = union[fam ^ low] | masks[low.bit_length() - 1]
        union[fam] = s_mask
        yield s_mask, count_components_mask(adjmask, full ^ s_mask)


def restricted_scattering(g: Graph, separator_sets, max_sets=20) -> OracleResult:
    """Scattering maximum over nonempty unions of the given vertex sets.

    The class-specific fast oracle: for strictly chordal graphs every
    separator is a union of pairwise disjoint minimal vertex separators, so
    restricting candidates to such unions preserves the maximum.
    """
    size, comp, witness = _best(_unions(g, separator_sets, max_sets), "candidate union",
                                _more_scattered)
    return OracleResult(comp - size, witness, (1 << len(separator_sets)) - 1)


def restricted_toughness(g: Graph, separator_sets, max_sets=20) -> OracleResult:
    """Toughness minimum over nonempty unions of the given vertex sets."""
    size, comp, witness = _best(_unions(g, separator_sets, max_sets), "candidate union",
                                _less_tough)
    return OracleResult(Fraction(size, comp), witness, (1 << len(separator_sets)) - 1)
