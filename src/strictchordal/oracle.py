"""Brute-force reference computations straight from the raw definitions.

The scattering number is the maximum of omega(G-S) - |S| and the toughness
the minimum of |S| / omega(G-S), both over every vertex subset S whose
removal leaves at least two components.  Subsets are enumerated as bitmasks;
component counts come from a memoized bitset table indexed by survivor set.
Exponential: guarded by a size cap (env var SCATTER_ORACLE_CAP overrides the
default).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

from .errors import CompleteGraphError, TooLargeError
from .graph import Graph

DEFAULT_CAP = 20
CAP_ENV_VAR = "SCATTER_ORACLE_CAP"


def oracle_cap(cap=None) -> int:
    """Effective size cap: explicit argument, else the environment override,
    else the default."""
    if cap is not None:
        return cap
    env = os.environ.get(CAP_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {env!r}") from None
    return DEFAULT_CAP


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


def count_components_mask(adjmask, survivors: int) -> int:
    """Number of connected components induced on the survivor bitmask."""
    count = 0
    remaining = survivors
    while remaining:
        seed = remaining & -remaining
        comp = seed
        frontier = seed
        while frontier:
            reach = 0
            f = frontier
            while f:
                low = f & -f
                reach |= adjmask[low.bit_length() - 1]
                f ^= low
            frontier = reach & survivors & ~comp
            comp |= frontier
        remaining &= ~comp
        count += 1
    return count


def component_count_table(g: Graph) -> list[int]:
    """components of G[T] for every survivor bitmask T (list index = T).

    Built by peeling the component of the lowest surviving vertex and
    looking up the rest, so each entry costs one bitset reachability pass.
    """
    n = g.n
    adjmask = adjacency_masks(g)
    table = [0] * (1 << n)
    for t in range(1, 1 << n):
        seed = t & -t
        comp = seed
        frontier = seed
        while frontier:
            reach = 0
            f = frontier
            while f:
                low = f & -f
                reach |= adjmask[low.bit_length() - 1]
                f ^= low
            frontier = reach & t & ~comp
            comp |= frontier
        table[t] = 1 + table[t & ~comp]
    return table


def brute_force_scattering(g: Graph, cap=None) -> OracleResult:
    """Exact scattering number by enumerating all 2^n vertex subsets.

    Raises TooLargeError beyond the cap and CompleteGraphError when no
    subset disconnects the graph.
    """
    n = g.n
    cap = oracle_cap(cap)
    if n > cap:
        raise TooLargeError(f"n={n} exceeds the oracle cap {cap}")
    table = component_count_table(g)
    full = (1 << n) - 1
    best = None
    best_mask = 0
    for s_mask in range(1 << n):
        comp = table[full ^ s_mask]
        if comp >= 2:
            value = comp - s_mask.bit_count()
            if best is None or value > best:
                best = value
                best_mask = s_mask
    if best is None:
        raise CompleteGraphError("no subset disconnects the graph")
    return OracleResult(best, frozenset(_bits(best_mask)), 1 << n)


def brute_force_toughness(g: Graph, cap=None) -> OracleResult:
    """Exact toughness by enumerating all 2^n vertex subsets.

    Raises TooLargeError beyond the cap and CompleteGraphError when no
    subset disconnects the graph (toughness is infinite).
    """
    n = g.n
    cap = oracle_cap(cap)
    if n > cap:
        raise TooLargeError(f"n={n} exceeds the oracle cap {cap}")
    table = component_count_table(g)
    full = (1 << n) - 1
    best_num = best_den = 0
    best_mask = 0
    found = False
    for s_mask in range(1 << n):
        comp = table[full ^ s_mask]
        if comp >= 2:
            size = s_mask.bit_count()
            # size/comp < best_num/best_den, exactly
            if not found or size * best_den < best_num * comp:
                found = True
                best_num = size
                best_den = comp
                best_mask = s_mask
    if not found:
        raise CompleteGraphError("no subset disconnects the graph")
    return OracleResult(Fraction(best_num, best_den), frozenset(_bits(best_mask)), 1 << n)


def restricted_scattering(g: Graph, separator_sets, max_sets=20) -> OracleResult:
    """Scattering maximum over nonempty unions of the given vertex sets.

    The class-specific fast oracle: for strictly chordal graphs every
    separator is a union of pairwise disjoint minimal vertex separators, so
    restricting candidates to such unions preserves the maximum.
    """
    k = len(separator_sets)
    if k > max_sets:
        raise TooLargeError(f"{k} separator sets exceed the union cap {max_sets}")
    adjmask = adjacency_masks(g)
    full = (1 << g.n) - 1
    masks = _union_masks(separator_sets)
    union = [0] * (1 << k)
    best = None
    best_mask = 0
    for fam in range(1, 1 << k):
        low = fam & -fam
        s_mask = union[fam ^ low] | masks[low.bit_length() - 1]
        union[fam] = s_mask
        comp = count_components_mask(adjmask, full ^ s_mask)
        if comp >= 2:
            value = comp - s_mask.bit_count()
            if best is None or value > best or (value == best and s_mask < best_mask):
                best = value
                best_mask = s_mask
    if best is None:
        raise CompleteGraphError("no candidate union disconnects the graph")
    return OracleResult(best, frozenset(_bits(best_mask)), (1 << k) - 1)


def restricted_toughness(g: Graph, separator_sets, max_sets=20) -> OracleResult:
    """Toughness minimum over nonempty unions of the given vertex sets."""
    k = len(separator_sets)
    if k > max_sets:
        raise TooLargeError(f"{k} separator sets exceed the union cap {max_sets}")
    adjmask = adjacency_masks(g)
    full = (1 << g.n) - 1
    masks = _union_masks(separator_sets)
    union = [0] * (1 << k)
    best_num = best_den = 0
    best_mask = 0
    found = False
    for fam in range(1, 1 << k):
        low = fam & -fam
        s_mask = union[fam ^ low] | masks[low.bit_length() - 1]
        union[fam] = s_mask
        comp = count_components_mask(adjmask, full ^ s_mask)
        if comp >= 2:
            size = s_mask.bit_count()
            better = not found or size * best_den < best_num * comp
            tie = found and size * best_den == best_num * comp and s_mask < best_mask
            if better or tie:
                found = True
                best_num = size
                best_den = comp
                best_mask = s_mask
    if not found:
        raise CompleteGraphError("no candidate union disconnects the graph")
    return OracleResult(Fraction(best_num, best_den), frozenset(_bits(best_mask)), (1 << k) - 1)
