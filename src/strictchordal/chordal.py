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

The quotient of a strictly chordal graph is a block graph, whose cliques
are its blocks and whose separators are its cut vertices.
``block_decomposition`` proves that with one breadth-first search and reads
both tables off it; the search above serves every other graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalError, NotChordalError, NotConnectedError
from .graph import Graph, _key_dtypes, _run_starts


def mcs_order(g: Graph) -> list[int]:
    """Maximum-cardinality-search ordering of g, in O(n + m).

    The result is a perfect elimination ordering iff g is chordal.  Vertex 0
    is visited first, so it ends up last in the ordering; later ties within a
    weight fall to the vertex that most recently reached that weight (LIFO).
    The search is the bucket queue of Tarjan and Yannakakis (1984).  It reads
    only the CSR arrays of ``g.csr()``: each visited vertex's neighbours are
    one slice of ``indices`` bounded by ``indptr``, both read through
    memoryviews, which copy nothing and iterate as fast as lists.
    """
    n = g.n
    indptr, indices = g.csr()
    bounds, flat = memoryview(indptr), memoryview(indices)
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
    Neighbours are read as slices of the CSR arrays, through memoryviews.
    """
    indptr, indices = g.csr()
    bounds, flat = memoryview(indptr), memoryview(indices)
    # N[u] less a and b is marked reached, so the search never enters it
    parent = dict.fromkeys(flat[bounds[u]:bounds[u + 1]], u)
    parent[u] = u
    del parent[b]
    parent[a] = None
    queue = [a]
    for v in queue:  # grows while it is read
        if v == b:
            break
        for x in flat[bounds[v]:bounds[v + 1]]:
            if x not in parent:
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
    # the non-empty rows (reduceat reads one entry for an empty row)
    fp = _mix_keys(ids)
    full = deg.nonzero()[0]
    fp[full] += np.add.reduceat(fp[indices], indptr[full])
    least = _least_of_groups(fp)
    rep = np.where(deg == deg[least], least, ids)
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
    ran on (``g.csr()``) and the search order: cliques are numbered by the
    breadth-first search of ``block_decomposition`` on a block graph, and
    by the maximum-cardinality search otherwise.
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
    The table is then assembled by ``_separator_table``, which
    ``block_decomposition`` ends in too.
    """
    n_edges = len(ct.edge_child)
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
    # each row's classes spread into vertices, sorted within the row
    classes, row_ptr = _spread(ct.edge_child[firsts], ct.sep_ptr, vals)
    vertices, ends = _spread(classes, ct.class_ptr, ct.members)
    row_ptr = ends[row_ptr]
    sizes = row_ptr[1:] - row_ptr[:-1]
    vertices = vertices[np.lexsort((vertices, np.arange(len(firsts)).repeat(sizes)))]
    return _separator_table(ct, ct.class_ptr[1:] - ct.class_ptr[:-1], sid, row_ptr, vertices)


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


def _bfs_groups(h: Graph):
    """A BFS of h from vertex 0 with its sibling groups, or None when the
    search or a group check fails (see ``block_decomposition``).

    Returns ``(order, par, pos, group)``: the vertex at each search
    position, each vertex's parent (-1 for the root), each vertex's
    position, and the group of the vertex at each position, named by the
    group's least position (the root is alone in group 0).
    """
    k = h.n
    if k == 0:
        return None
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
    if len(order) < k:
        return None
    order = np.array(order)
    par = np.array(par)
    pos = np.empty(k, dtype=np.int64)
    pos[order] = np.arange(k)
    # sibling entries of the CSR: both ends have one parent (the root none)
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
    return order, par, pos, group[order]


def block_decomposition(h: Graph, class_ptr, members):
    """``(CliqueTree, Separators)`` of h read off one breadth-first search
    when h is a connected block graph, as the true-twin quotient of every
    strictly chordal graph is; None otherwise, deciding nothing about h.

    The search runs from class 0 and gives each class a parent; the
    children a class reaches are siblings.  It stops with None at an edge
    v-w, w seen before, where w is neither v's parent nor its sibling, and
    when it misses a class.  Siblings fall into groups: a class's group is
    the least search position among itself and its sibling neighbours.
    Every sibling edge must stay inside its group, and a group of s classes
    must hold s(s - 1) sibling entries, so every group is a clique.

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
    ``minimal_vertex_separators`` ends in too.
    """
    found = _bfs_groups(h)
    if found is None:
        return None
    order, par, pos, group = found
    del found  # each array goes once its last use is past
    k = len(order)
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
