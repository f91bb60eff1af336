"""The true-twin quotient, the decomposition tables and the accepting block path.

Every input first runs ``true_twin_quotient``: one vertex per class of equal
closed neighbourhoods, certified by counting edges between classes.  The
``CliqueTree`` keeps the classes and spreads them into vertices only where
cliques and separators are read out.  Every maximal clique and minimal
separator is a union of such classes, and adding a true twin creates no
chordless cycle, so the quotient has the same cliques, separators,
connectivity and chordality, on far fewer edges when the classes are large.

The quotient of a strictly chordal graph is a block graph, whose cliques
are its blocks and whose separators are its cut vertices.
``block_decomposition`` proves that with one breadth-first search and reads
both tables off it.  Every other graph takes the maximum-cardinality search
of ``general``, which builds the same ``CliqueTree`` and ``Separators``
tables through ``_spread`` and ``_separator_table``; this module never
imports it.
"""

from __future__ import annotations

import numpy as np

from .errors import NotConnectedError
from .graph import Graph, _key_dtypes, _run_starts


_GOLDEN, _MUL1, _MUL2 = (np.uint64(c) for c in
                         (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))
_SHIFT1, _SHIFT2, _SHIFT3 = np.uint64(30), np.uint64(27), np.uint64(31)


def _mix_keys(ids):
    """Fixed pseudo-random 64-bit keys of the vertex ids ``ids`` (the
    splitmix64 finaliser), so fingerprints need no random state."""
    x = ids.astype(np.uint64)
    x += _GOLDEN
    x ^= x >> _SHIFT1
    x *= _MUL1
    x ^= x >> _SHIFT2
    x *= _MUL2
    x ^= x >> _SHIFT3
    return x


def _least_of_groups(fp):
    """For each vertex v, the least vertex whose fingerprint is ``fp[v]``.
    The sort need not be stable: each group's least is taken by a
    reduction, not as its first entry."""
    by_fp = fp.argsort()
    first = _run_starts(fp[by_fp])
    least = np.empty(len(fp), dtype=np.int64)
    least[by_fp] = np.minimum.reduceat(by_fp, first.nonzero()[0])[first.cumsum() - 1]
    return least


def true_twin_quotient(g: Graph):
    """Classes of mutual true twins of g and the graph on one vertex of each.

    Returns ``(h, reps, class_ptr, members)``.  ``reps`` holds the least
    vertex of each class, ascending; class x is
    ``members[class_ptr[x]:class_ptr[x + 1]]``, ``reps[x]`` first and the
    rest ascending.  ``h`` is g induced on ``reps``, with ``reps[x]``
    renumbered x; it is g itself when no vertex has a twin.

    v joins the least vertex sharing its 64-bit fingerprint: the sum of its
    closed neighbourhood's keys plus an odd multiple of its degree.
    Counting the CSR entries between each pair of classes certifies them:
    a class A of two or more vertices must hold |A|(|A| - 1) (a clique),
    classes A != B none or |A||B| (all or nothing).  If a count fails,
    which takes a fingerprint collision, every vertex is a class of its
    own: a collision costs compression, never correctness.  The entries
    are counted by sorting their keys class * k + class, as uint32 for
    k <= 65,536 classes and more than 1,024 entries (``_key_dtypes``); the
    class ids are then uint16, whose stable sort (it orders ``members``) is
    a radix sort.
    """
    n = g.n
    indptr, indices = g.csr()
    deg = indptr[1:] - indptr[:-1]
    ids = np.arange(n, dtype=np.int64)
    # fingerprint of N[v]: v's key plus its row's wrapping sum, taken over
    # the non-empty rows (reduceat reads one entry for an empty row), plus
    # an odd multiple of v's degree
    fp = _mix_keys(ids)
    full = deg.nonzero()[0]
    fp[full] += np.add.reduceat(fp[indices], indptr[full])
    fp += deg.view(np.uint64) * _MUL1
    rep = _least_of_groups(fp)
    is_rep = rep == ids
    reps = is_rep.nonzero()[0]
    k = len(reps)
    if k == n:
        return g, ids, np.arange(n + 1, dtype=np.int64), ids
    digit, key = _key_dtypes(k, len(indices))
    # class ids (a 16-bit cumsum wraps only past k - 1) and, sorted, every
    # CSR entry labelled with its class pair: each pair is a run
    cls = (is_rep.cumsum(dtype=digit) - 1)[rep]
    size = np.bincount(cls, minlength=k)
    pairs = np.multiply(cls, k, dtype=key).repeat(deg)
    pairs += cls[indices]
    pairs.sort()
    first = _run_starts(pairs).nonzero()[0]
    a, b = np.divmod(pairs[first].astype(np.int64, copy=False), k)
    ends = np.concatenate((first[1:], [len(pairs)]))
    inner = a == b
    if (np.count_nonzero(inner) != np.count_nonzero(size > 1)
            or ((size[a] * (size[b] - inner)).cumsum() != ends).any()):
        return g, ids, np.arange(n + 1, dtype=np.int64), ids
    class_ptr = np.zeros(k + 1, dtype=np.int64)
    size.cumsum(out=class_ptr[1:])
    # h's rows are the runs between two classes, ascending by pair
    h_indptr = np.bincount(a[~inner] + 1, minlength=k + 1).cumsum()
    h = Graph._from_csr(h_indptr, b[~inner], g.id_base)
    return h, reps, class_ptr, cls.argsort(kind="stable")


class _Record:
    """Base of the result records, slotted classes that import without building a
    dataclass: repr ``Name(field=value, ...)`` but ``_hidden``, pickle by position."""

    __slots__ = ()
    _hidden = ()

    def __repr__(self):
        shown = (f"{k}={getattr(self, k)!r}" for k in self.__slots__ if k not in self._hidden)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, k) for k in self.__slots__)


def _read_only(self, name, value=None):
    """``__setattr__`` and ``__delattr__`` of a record its ``__init__`` fills."""
    raise AttributeError(f"{type(self).__qualname__} is read-only: cannot set or delete {name!r}")


class CliqueTree(_Record):
    """Maximal cliques of a connected chordal graph and a clique tree, kept
    on the graph's true-twin classes.

    The arrays hold class ids: class x stands for the vertices
    ``members[class_ptr[x]:class_ptr[x + 1]]``.  Clique q is its own classes
    ``visit[clique_ptr[q]:clique_ptr[q + 1]]``, representative first, and its
    separator row ``sep_indices[sep_ptr[q]:sep_ptr[q + 1]]``, ascending: its
    overlap with its parent clique (empty for the root, clique 0).  Tree edge
    e joins ``edge_child[e]`` to ``edge_parent[e]`` and is labelled with the
    child's row.  ``clique(q)`` (own classes, then the row) and
    ``separator_slice(e)`` spread the classes into vertices, each class
    ascending.  All of it comes from the CSR arrays of the graph the search
    ran on (``g.csr()``) and the search order: cliques are numbered by the
    breadth-first search of ``block_decomposition`` on a block graph, and
    by the maximum-cardinality search otherwise.
    """

    __slots__ = ("visit", "clique_ptr", "sep_indices", "sep_ptr", "edge_child", "edge_parent",
                 "class_ptr", "members")

    def __init__(self, visit, clique_ptr, sep_indices, sep_ptr, edge_child, edge_parent,
                 class_ptr, members):
        self.visit = visit
        self.clique_ptr = clique_ptr
        self.sep_indices = sep_indices
        self.sep_ptr = sep_ptr
        self.edge_child = edge_child
        self.edge_parent = edge_parent
        self.class_ptr = class_ptr
        self.members = members

    @property
    def n_cliques(self) -> int:
        return len(self.clique_ptr) - 1

    def clique(self, q: int) -> np.ndarray:
        classes = np.concatenate((self.visit[self.clique_ptr[q]:self.clique_ptr[q + 1]],
                                  self.sep_indices[self.sep_ptr[q]:self.sep_ptr[q + 1]]))
        return _spread(classes, self.class_ptr, self.members)[0]

    def separator_slice(self, e: int) -> np.ndarray:
        child = self.edge_child[e]
        classes = self.sep_indices[self.sep_ptr[child]:self.sep_ptr[child + 1]]
        return _spread(classes, self.class_ptr, self.members)[0]


def _spread(xs, class_ptr, members):
    """Rows ``xs`` of the CSR ``(class_ptr, members)``, concatenated, and
    the prefix sums of their lengths (``ends[i]`` entries come before row
    xs[i]); on the class CSR, the classes of the vertices ``xs``."""
    sizes = class_ptr[xs + 1] - class_ptr[xs]
    ends = np.zeros(len(xs) + 1, dtype=np.int64)
    sizes.cumsum(out=ends[1:])
    at = np.arange(ends[-1]) + (class_ptr[xs] - ends[:-1]).repeat(sizes)
    return members[at], ends


class Separators(_Record):
    """The distinct minimal vertex separators of a clique tree, as arrays.

    Separator s is ``indices[indptr[s]:indptr[s + 1]]``, ascending, and has
    ``sizes[s]`` vertices.  The separators are sorted by their rows of the
    clique tree's classes.  Class ids ascend with each class's least vertex,
    so disjoint separators come by smallest vertex; separators that overlap
    (only outside the class) may tie-break by class rows, not by vertices.
    ``mult[s]`` counts the tree edges labelled with s and ``boundary[s]`` its
    boundary cliques, those incident to no other separator.  The
    clique/separator incidences are the pairs ``(pair_sep[j],
    pair_clique[j])``, sorted by separator and then clique; ``clique_sizes``
    holds the sizes (in vertices) of the tree's ``n_cliques`` cliques.
    """

    __slots__ = ("n_cliques", "clique_sizes", "indptr", "indices", "sizes", "mult", "boundary",
                 "pair_sep", "pair_clique")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, n_cliques, clique_sizes, indptr, indices, sizes, mult, boundary,
                 pair_sep, pair_clique):
        object.__setattr__(self, "n_cliques", n_cliques)
        object.__setattr__(self, "clique_sizes", clique_sizes)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "boundary", boundary)
        object.__setattr__(self, "pair_sep", pair_sep)
        object.__setattr__(self, "pair_clique", pair_clique)

    def __len__(self) -> int:
        return len(self.mult)

    def row(self, s: int) -> frozenset:
        """Separator s as a frozenset of Python ints."""
        return frozenset(self.indices[self.indptr[s]:self.indptr[s + 1]].tolist())


def _separator_table(ct: CliqueTree, class_sizes, sid, indptr, indices) -> Separators:
    """The ``Separators`` table of ``ct``, whose class x has
    ``class_sizes[x]`` vertices and whose tree edge e is labelled with
    separator ``sid[e]``, separator s being the ascending vertex row
    ``indices[indptr[s]:indptr[s + 1]]``.  Both decomposition paths end
    here: it orders the incidences, finds the boundary cliques and counts
    the multiplicities and the sizes of separators and cliques.
    """
    n_cliques = ct.n_cliques
    n_seps = len(indptr) - 1
    # a clique's size is its own run's plus its row's, both in vertices; the
    # graph is connected, so only the root's row is empty
    clique_sizes = np.add.reduceat(class_sizes[ct.visit], ct.clique_ptr[:-1])
    clique_sizes[1:] += np.add.reduceat(class_sizes[ct.sep_indices], ct.sep_ptr[1:-1])
    # distinct (separator, clique) incidences from both edge endpoints, each
    # array freed or reused once read
    pairs = np.concatenate((sid, sid)) * n_cliques
    pairs += np.concatenate((ct.edge_child, ct.edge_parent))
    pairs.sort()
    pairs = pairs[_run_starts(pairs)]
    pair_clique = pairs % n_cliques
    pairs //= n_cliques  # now each pair's separator
    # boundary cliques contain exactly one distinct separator
    leaf = np.bincount(pair_clique, minlength=n_cliques) == 1
    return Separators(
        n_cliques=n_cliques,
        clique_sizes=clique_sizes,
        indptr=indptr,
        indices=indices,
        sizes=indptr[1:] - indptr[:-1],
        mult=np.bincount(sid, minlength=n_seps),
        boundary=np.bincount(pairs[leaf[pair_clique]], minlength=n_seps),
        pair_sep=pairs,
        pair_clique=pair_clique,
    )


def block_decomposition(h: Graph, class_ptr, members):
    """``(CliqueTree, Separators)`` of h read off one breadth-first search
    when h is a connected block graph, as the true-twin quotient of every
    strictly chordal graph is; raises NotConnectedError when h is empty or
    the search misses a class; None otherwise: take the general path.

    The search runs from class 0 and gives each class a parent; the
    children a class reaches are siblings.  It stops with None at an edge
    v-w, w seen before, where w is neither v's parent nor its sibling.  A
    search that ends short of a class has proved h, and so the input,
    disconnected: the general path's first verdict too.  Siblings fall into
    groups: a class's group is the least search position among itself and
    its sibling neighbours.  Every sibling edge must stay inside its group,
    and a group of s classes must hold s(s - 1) sibling entries, so every
    group is a clique.

    These checks prove h a block graph, exactly and without hashing: every
    edge lies in one of the cliques {parent} + group, each clique hangs off
    its parent class and each class but the root lies in one clique as a
    child, so the class/clique incidences form a tree.  The cliques are
    then h's blocks and its minimal separators are its cut classes, which
    never overlap; spread into their vertices, they are the input's.

    Cliques are numbered by their groups' least positions; clique 0 holds
    the root, has an empty row and is every root block's parent.  Any other
    clique's row is its parent class, which lies in the parent clique as a
    child or as the root.  A cut class lies in its own clique and in those
    it parents, so ``mult`` is its block count less one.  The separator
    table is assembled by ``_separator_table``, which
    ``general.minimal_vertex_separators`` ends in too.
    """
    k = h.n
    if k == 0:
        raise NotConnectedError()
    indptr, indices = h.csr()
    bounds, flat = memoryview(indptr), memoryview(indices)
    par = [-2] * k  # -2: not reached yet
    par[0] = -1
    order = [0]
    for v in order:  # grows while it is read: the queue
        pv = par[v]
        for w in flat[bounds[v]:bounds[v + 1]]:
            pw = par[w]
            if pw == -2:
                par[w] = v
                order.append(w)
            elif pw != pv and w != pv:
                return None
    if len(order) < k:  # the search proved h disconnected
        raise NotConnectedError()
    order = np.array(order)
    par = np.array(par)
    pos = np.empty(k, dtype=np.int64)
    pos[order] = np.arange(k)
    # sibling entries of the CSR: both ends have one parent (the root none);
    # each position's group is named by the group's least position
    sib = (par.repeat(indptr[1:] - indptr[:-1]) == par[indices]).nonzero()[0]
    tail = indptr.searchsorted(sib, side="right") - 1
    head = indices[sib]
    del sib
    group = pos.copy()
    np.minimum.at(group, tail, pos[head])
    tail, head = group[tail], group[head]
    size = np.bincount(group, minlength=k)
    if (np.count_nonzero(tail != head)
            or np.count_nonzero(np.bincount(tail, minlength=k) != size * (size - 1))):
        return None
    del tail, head, size  # each array goes once its last use is past
    group = group[order]
    group[0] = min(k - 1, 1)  # the root joins the block of the first class it reached
    lead = group == np.arange(k)
    clique = lead.cumsum() - 1
    nq = int(clique[-1]) + 1
    clique = clique[group]  # the clique of each position
    del group
    clique_ptr = np.zeros(nq + 1, dtype=np.int64)
    np.bincount(clique, minlength=nq).cumsum(out=clique_ptr[1:])
    visit = order[clique.argsort(kind="stable")]  # nearly sorted: timsort's best case
    row = par[order[lead.nonzero()[0][1:]]]  # clique q's row is row[q - 1]
    del order, par, lead
    clique = clique[pos]  # now the clique of each class
    del pos
    sep_ptr = np.arange(-1, nq)
    sep_ptr[0] = 0
    edge_child = sep_ptr[2:]  # 1, ..., nq - 1
    ct = CliqueTree(visit=visit, clique_ptr=clique_ptr, sep_indices=row, sep_ptr=sep_ptr,
                    edge_child=edge_child, edge_parent=clique[row],
                    class_ptr=class_ptr, members=members)
    del clique
    # the separators are the cut classes, ascending, each spread into its
    # vertices; tree edge e is labelled with its child's row, a cut class
    class_sizes = class_ptr[1:] - class_ptr[:-1]
    is_cut = np.bincount(row, minlength=k) > 0
    ends = np.zeros(np.count_nonzero(is_cut) + 1, dtype=np.int64)
    class_sizes[is_cut].cumsum(out=ends[1:])
    return ct, _separator_table(ct, class_sizes, (is_cut.cumsum() - 1)[row], ends,
                                members[is_cut.repeat(class_sizes)])  # classes are runs of members
