"""Chordality recognition and clique-tree machinery.

Maximum-cardinality search yields a candidate perfect elimination ordering;
the follower test certifies it; the maximal cliques, the clique tree and the
minimal-vertex-separator multiset all fall out of one pass over the ordering.
The edge-heavy steps run on numpy arrays so large instances stay cheap.

The search, the clique tree and the separator rows may run on the true-twin
quotient (``true_twin_quotient``: one vertex per class of equal closed
neighbourhoods, certified by counting edges between classes); the
``CliqueTree`` keeps the classes and spreads them into vertices only where
cliques and separators are read out.  Every maximal clique and minimal
separator is a union of such classes, and adding a true twin creates no
chordless cycle, so the quotient has the same cliques, separators,
connectivity and chordality, on far fewer edges when the classes are large.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalError, NotChordalError, NotConnectedError
from .graph import Graph, _run_starts


def mcs_order(g: Graph) -> list[int]:
    """Maximum-cardinality-search ordering of g, in O(n + m).

    The result is a perfect elimination ordering iff g is chordal.  Vertex 0
    is visited first, so it ends up last in the ordering; later ties within a
    weight fall to the vertex that most recently reached that weight (LIFO).
    The search is the bucket queue of Tarjan and Yannakakis (1984).  It reads
    only the CSR arrays of ``g.csr()``: each visited vertex's neighbours are
    one slice of ``indices`` (as a Python list) bounded by ``indptr``.
    """
    n = g.n
    indptr, indices = g.csr()
    flat = indices.tolist()
    bounds = indptr.tolist()
    # weight[v] counts v's visited neighbours, or is -1 once v is visited.
    # buckets[w] holds vertices that had weight w when pushed; entries whose
    # weight has since risen are stale and skipped on pop.  No weight
    # exceeds the maximum degree.
    weight = [0] * n
    buckets = [list(range(n - 1, -1, -1))]
    buckets += [[] for _ in range(int((indptr[1:] - indptr[:-1]).max(initial=0)))]
    top = 0
    visit = []
    append = visit.append
    for _ in range(n):
        while True:
            bucket = buckets[top]
            while not bucket:
                top -= 1
                bucket = buckets[top]
            v = bucket.pop()
            if weight[v] == top:
                break
        weight[v] = -1
        append(v)
        for u in flat[bounds[v]:bounds[v + 1]]:
            wu = weight[u]
            if wu >= 0:
                wu += 1
                weight[u] = wu
                buckets[wu].append(u)
                if wu > top:
                    top = wu
    visit.reverse()
    return visit


def _orient(g: Graph, order):
    """Orient every edge of g toward its endpoint later in ``order``.

    Reads the CSR arrays only.  Returns ``(ptr, heads, follower, bad)``:
    v's later neighbours are ``heads[ptr[v]:ptr[v + 1]]``, ascending, and
    ``follower[v]`` is the one of least position (-1 if none).  ``bad``
    holds the triples (u, follower(u), w) failing the follower test, by u and
    then by w's position: every later neighbour w of u other than its
    follower must be adjacent to the follower, so ``bad`` is empty iff
    ``order`` is a perfect elimination ordering.
    """
    n = g.n
    indptr, indices = g.csr()
    order = np.asarray(order, dtype=np.int64)
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n, dtype=np.int64)
    tails = np.arange(n, dtype=np.int64).repeat(indptr[1:] - indptr[:-1])
    head_pos = pos[indices]
    # integer takes: boolean indexing by this irregular mask is much slower
    later = (head_pos > pos[tails]).nonzero()[0]
    tails = tails[later]
    heads = indices[later]
    head_pos = head_pos[later]
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.bincount(tails, minlength=n).cumsum(out=ptr[1:])
    has_later = ptr[1:] > ptr[:-1]
    follower = np.subtract(has_later, 1, dtype=np.int64)  # -1 without later neighbours
    if len(tails):
        follower[has_later] = order[np.minimum.reduceat(head_pos, ptr[:-1][has_later])]
    # w comes after follower(u), so the edge (follower(u), w), if present, is
    # one of the oriented keys tail * n + head, sorted as tails and heads ascend
    keys = tails * n + heads
    fu = follower[tails]
    query = fu * n + heads
    found = keys[np.minimum(keys.searchsorted(query), len(keys) - 1)] == query
    fail = ~found & (heads != fu)
    u, fu, w = tails[fail], fu[fail], heads[fail]
    if len(u):
        by_pos = np.lexsort((pos[w], u))
        u, fu, w = u[by_pos], fu[by_pos], w[by_pos]
    return ptr, heads, follower, (u, fu, w)


def verify_peo(g: Graph, order) -> bool:
    """True iff ``order`` is a perfect elimination ordering of g; raises
    ValueError if it is not a permutation of the vertices."""
    if not np.array_equal(np.sort(np.asarray(order, dtype=np.int64)), np.arange(g.n)):
        raise ValueError("order is not a permutation of the vertices")
    return len(_orient(g, order)[-1][0]) == 0


def find_chordless_cycle(g: Graph, u: int, a: int, b: int):
    """Chordless cycle through u given non-adjacent a, b in N(u), or None.

    The interior of the cycle is a shortest a-b path avoiding N[u] outside
    {a, b}; shortest paths are induced, and u sees only a and b on the cycle.
    Neighbours are read as slices of the CSR arrays.
    """
    indptr, indices = g.csr()
    blocked = set(indices[indptr[u]:indptr[u + 1]].tolist())
    blocked.add(u)
    blocked.discard(a)
    blocked.discard(b)
    parent = {a: None}
    queue = [a]
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        if v == b:
            break
        for x in indices[indptr[v]:indptr[v + 1]].tolist():
            if x not in blocked and x not in parent:
                parent[x] = v
                queue.append(x)
    if b not in parent:
        return None
    path = []
    v = b
    while v is not None:
        path.append(v)
        v = parent[v]
    path.append(u)  # cycle: u, a, ..., b back to u
    path.reverse()
    return path


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

    v joins the least vertex sharing its 64-bit fingerprint of the closed
    neighbourhood (the sum of its members' keys) if their degrees agree.
    Counting the CSR entries between each pair of classes certifies them:
    a class A of two or more vertices must hold |A|(|A| - 1) (a clique),
    classes A != B none or |A||B| (all or nothing).  If a count fails,
    which takes a fingerprint collision, every vertex is a class of its
    own: a collision costs compression, never correctness.
    """
    n = g.n
    indptr, indices = g.csr()
    deg = indptr[1:] - indptr[:-1]
    ids = np.arange(n, dtype=np.int64)
    # fingerprint of N[v]: v's key plus its row's, from wrapping prefix sums
    fp = _mix_keys(ids)
    acc = np.zeros(len(indices) + 1, dtype=np.uint64)
    fp[indices].cumsum(out=acc[1:])
    fp += acc[indptr[1:]] - acc[indptr[:-1]]
    del acc
    least = _least_of_groups(fp)
    rep = np.where(deg == deg[least], least, ids)
    is_rep = rep == ids
    reps = is_rep.nonzero()[0]
    k = len(reps)
    if k == n:
        return g, ids, np.arange(n + 1, dtype=np.int64), ids
    cls = (is_rep.cumsum() - 1)[rep]
    size = np.bincount(cls, minlength=k)
    # every CSR entry labelled with its class pair; sorted, each pair is a run
    pairs = (cls * k).repeat(deg)
    pairs += cls[indices]
    pairs.sort()
    first = _run_starts(pairs).nonzero()[0]
    a, b = np.divmod(pairs[first], k)
    ends = np.concatenate((first[1:], [len(pairs)]))
    inner = a == b
    if (np.count_nonzero(inner) != np.count_nonzero(size > 1)
            or ((size[a] * (size[b] - inner)).cumsum() != ends).any()):
        return g, ids, np.arange(n + 1, dtype=np.int64), ids
    class_ptr = np.zeros(k + 1, dtype=np.int64)
    size.cumsum(out=class_ptr[1:])
    # h's rows are the runs between two classes, ascending by pair
    h_indptr = a[~inner].searchsorted(np.arange(k + 1))
    h = Graph._from_csr(h_indptr, b[~inner], g.id_base)
    return h, reps, class_ptr, cls.argsort(kind="stable")


@dataclass
class CliqueTree:
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
    ran on (``g.csr()``) and the search order.
    """

    visit: np.ndarray
    clique_ptr: np.ndarray
    sep_indices: np.ndarray
    sep_ptr: np.ndarray
    edge_child: np.ndarray
    edge_parent: np.ndarray
    class_ptr: np.ndarray
    members: np.ndarray

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


def build_clique_tree(g: Graph) -> CliqueTree:
    """Maximal cliques and a clique tree of a connected chordal graph, built
    from ``mcs_order(g)`` with every vertex a class of its own.

    Raises NotConnectedError, or NotChordalError carrying a chordless-cycle
    witness when one could be recovered.  Cliques appear in the order their
    representatives are visited; each non-root clique is attached to the
    clique its representative's follower was numbered into.  ``analyze``
    builds its tree the same way on the true-twin quotient, so its clique
    numbering (``VulnerabilityReport.clique_tree``) may differ from this one.
    """
    ids = np.arange(g.n + 1, dtype=np.int64)
    return _clique_tree_from_mcs(g, mcs_order(g), ids, ids[:-1])


def _clique_tree_from_mcs(g: Graph, order, class_ptr, members) -> CliqueTree:
    """The clique tree of g from its search order, vertex x of g standing
    for the class ``members[class_ptr[x]:class_ptr[x + 1]]``; a chordless
    cycle is reported through the first member of each class."""
    n = g.n
    order = np.asarray(order, dtype=np.int64)
    later_ptr, heads, follower, (bad_u, bad_f, bad_w) = _orient(g, order)
    sizes = later_ptr[1:] - later_ptr[:-1]
    # a connected graph has exactly one vertex without later neighbours (the
    # last of the ordering); each extra one starts another component
    if n == 0 or int((sizes == 0).sum()) != 1:
        raise NotConnectedError("clique tree requires a connected graph")
    if len(bad_u):
        cycle = None
        for u, a, b in zip(bad_u.tolist(), bad_f.tolist(), bad_w.tolist()):
            cycle = find_chordless_cycle(g, u, a, b)
            if cycle is not None:
                break
        if cycle is not None:
            cycle = members[class_ptr[cycle]].tolist()
        raise NotChordalError("graph is not chordal", cycle=cycle)

    # sizes[v] is v's weight when the search visited it.  Visit i joins the
    # clique of visit i-1, which has weight[i-1] + 1 vertices, when its weight
    # is that size (weight - i stays the same) and starts a new clique otherwise.
    visit = order[::-1]
    weight = sizes[visit]
    if (weight[1:] > weight[:-1] + 1).any():
        raise InternalError("MCS weight exceeded the current clique size")
    starts = _run_starts(weight - np.arange(n))
    clique_of = np.empty(n, dtype=np.int64)
    clique_of[visit] = starts.cumsum() - 1
    clique_ptr = np.concatenate((starts.nonzero()[0], [n]))
    reps = visit[clique_ptr[:-1]]
    # clique q = the vertices numbered into it, in visit order, then its
    # overlap with the parent: its representative's later neighbours, ascending
    sep_indices, sep_ptr = _spread(reps, later_ptr, heads)
    # each non-root clique hangs off the clique of its representative's follower
    return CliqueTree(
        visit=visit,
        clique_ptr=clique_ptr,
        sep_indices=sep_indices,
        sep_ptr=sep_ptr,
        edge_child=np.arange(1, len(reps), dtype=np.int64),
        edge_parent=clique_of[follower[reps[1:]]],
        class_ptr=class_ptr,
        members=members,
    )


@dataclass(frozen=True, eq=False)
class Separators:
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

    n_cliques: int
    clique_sizes: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    sizes: np.ndarray
    mult: np.ndarray
    boundary: np.ndarray
    pair_sep: np.ndarray
    pair_clique: np.ndarray

    def __len__(self) -> int:
        return len(self.mult)

    def row(self, s: int) -> frozenset:
        """Separator s as a frozenset of Python ints."""
        return frozenset(self.indices[self.indptr[s]:self.indptr[s + 1]].tolist())


def minimal_vertex_separators(ct: CliqueTree) -> Separators:
    """Distinct minimal vertex separators with multiplicities, as a
    ``Separators`` table.

    Each tree edge's row of classes is read in place from ``sep_indices``,
    the rows are sorted and deduplicated, and each distinct row is spread
    into its vertices; the multiplicities sum to the number of tree edges.
    On a block duplicate graph every row is one class: one sort orders them.
    """
    n_edges = len(ct.edge_child)
    n_cliques = ct.n_cliques
    vals = ct.sep_indices
    heads = ct.sep_ptr[ct.edge_child]  # edge e's row is vals[heads[e]:heads[e] + lens[e]]
    lens = ct.sep_ptr[ct.edge_child + 1] - heads
    # rows in lexicographic order (a row before the longer rows it begins):
    # by the first class, then run by run of equal prefixes by each later
    # column over the rows reaching it, so work and memory follow the entries
    order = vals[heads].argsort(kind="stable")
    key = vals[heads[order]]
    fresh = _run_starts(key)  # a run of equal prefixes starts here
    at = np.arange(n_edges, dtype=np.int64)  # positions of the rows still read
    for j in range(1, int(lens.max(initial=0))):
        at = at[lens[order[at]] >= j]  # whole runs: a shorter row's run ended
        rows = order[at]
        key = np.where(lens[rows] > j, vals.take(heads[rows] + j, mode="clip"), -1)
        by_key = np.lexsort((key, fresh[at].cumsum()))
        order[at], key = rows[by_key], key[by_key]
        fresh[at[1:]] |= key[1:] != key[:-1]
    sid = np.empty(n_edges, dtype=np.int64)
    sid[order] = fresh.cumsum() - 1
    firsts = order[fresh]  # one tree edge per distinct row, in row order
    n_seps = len(firsts)
    # distinct (separator, clique) incidences from both edge endpoints
    pair_keys = (np.concatenate((sid, sid)) * n_cliques
                 + np.concatenate((ct.edge_child, ct.edge_parent)))
    pair_keys.sort()
    fresh = _run_starts(pair_keys)
    pair_sep, pair_clique = np.divmod(pair_keys[fresh], n_cliques)
    # boundary cliques contain exactly one distinct separator
    leaf = np.bincount(pair_clique, minlength=n_cliques) == 1
    # each row's classes spread into vertices, sorted within the row
    classes, row_ptr = _spread(ct.edge_child[firsts], ct.sep_ptr, vals)
    vertices, ends = _spread(classes, ct.class_ptr, ct.members)
    row_ptr = ends[row_ptr]
    sizes = row_ptr[1:] - row_ptr[:-1]
    vertices = vertices[np.lexsort((vertices, np.arange(n_seps).repeat(sizes)))]
    # a clique's size is its own run's plus its row's, both in vertices
    class_sizes = ct.class_ptr[1:] - ct.class_ptr[:-1]
    own = np.add.reduceat(class_sizes[ct.visit], ct.clique_ptr[:-1])
    row = np.concatenate(([0], class_sizes[vals].cumsum()))[ct.sep_ptr]  # summed to each row
    return Separators(
        n_cliques=n_cliques,
        clique_sizes=own + row[1:] - row[:-1],
        indptr=row_ptr,
        indices=vertices,
        sizes=sizes,
        mult=np.bincount(sid, minlength=n_seps),
        boundary=np.bincount(pair_sep[leaf[pair_clique]], minlength=n_seps),
        pair_sep=pair_sep,
        pair_clique=pair_clique,
    )
