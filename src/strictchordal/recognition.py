"""Strictly chordal recognition on the separator table.

A chordal graph is strictly chordal iff its distinct minimal vertex
separators are pairwise disjoint, so recognition counts how many separators
each vertex lies in.  In that class the clique/separator incidence structure
is a tree, and every graph with at least two separators has a border
separator.
"""

from __future__ import annotations

import numpy as np

from .chordal import Separators


def separator_overlap(seps: Separators):
    """A witness (vertex, first_separator, second_separator) that two
    distinct separators intersect, or None when all are pairwise disjoint.

    The second separator is the first in table order to share a vertex with
    an earlier one, the vertex is its least such vertex, and the first
    separator is the earliest one holding that vertex.
    """
    vertices = seps.indices
    if np.bincount(vertices).max(initial=0) < 2:
        return None
    # the separator of each position, and the first separator of each vertex
    owner = np.repeat(np.arange(len(seps)), seps.sizes)
    first = np.full(int(vertices.max()) + 1, len(seps))
    np.minimum.at(first, vertices, owner)
    at = np.flatnonzero(owner > first[vertices])[0]
    v = int(vertices[at])
    return v, seps.row(first[v]), seps.row(owner[at])
