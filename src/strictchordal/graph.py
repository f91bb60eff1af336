"""Simple undirected graphs: parsing, serialization, components under deletion."""

from __future__ import annotations

import numpy as np

from .errors import ParseError


class Graph:
    """Immutable simple undirected graph with dense 0-based vertex ids.

    ``adj[v]`` is the sorted neighbour list of ``v``.  ``id_base`` records the
    numbering used by the source file (1 for DIMACS-like files, 0 for plain
    edge lists) so that reports can echo the ids the user wrote.  Duplicate
    edges passed to the constructor are collapsed and counted.
    """

    __slots__ = ("n", "m", "adj", "duplicate_edge_count", "id_base", "_csr")

    def __init__(self, n: int, edges=(), id_base: int = 1):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex id out of range: ({u}, {v})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u].append(v)
            adj[v].append(u)
        dup = 0
        m2 = 0
        for v in range(n):
            nbrs = sorted(set(adj[v]))
            dup += len(adj[v]) - len(nbrs)
            adj[v] = nbrs
            m2 += len(nbrs)
        self.n = n
        self.m = m2 // 2
        self.adj = adj
        self.duplicate_edge_count = dup // 2
        self.id_base = id_base
        self._csr = None

    def edges(self):
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if v > u:
                    yield u, v

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def csr(self):
        """Adjacency as numpy CSR arrays (indptr, indices), cached."""
        if self._csr is None:
            deg = np.fromiter((len(a) for a in self.adj), dtype=np.int64, count=self.n)
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(deg, out=indptr[1:])
            indices = np.fromiter(
                (w for a in self.adj for w in a), dtype=np.int64, count=2 * self.m
            )
            self._csr = (indptr, indices)
        return self._csr

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def parse_graph(text: str) -> Graph:
    """Parse a graph file, auto-detecting one of two formats.

    1. DIMACS-like: ``p edge <n> <m>`` header, then ``e <u> <v>`` lines with
       1-based ids; ``c`` comment lines are ignored.
    2. Plain edge list: first line ``<n> <m>``, then ``<u> <v>`` 0-based.

    Duplicate edges are collapsed (the count is kept on the graph); self-loops
    and out-of-range ids raise ParseError.
    """
    lines = text.splitlines()
    first = None
    for line in lines:
        stripped = line.strip()
        if stripped:
            first = stripped
            break
    if first is None:
        raise ParseError("empty input")
    if first.split()[0] in ("c", "p"):
        return _parse_dimacs(lines)
    return _parse_plain(lines)


def _parse_int(token: str, what: str, line_no: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected integer {what}, got {token!r}", line_no) from None


def _parse_dimacs(lines) -> Graph:
    n = None
    edges = []
    for line_no, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens or tokens[0] == "c":
            continue
        kind = tokens[0]
        if kind == "p":
            if n is not None:
                raise ParseError("duplicate problem line", line_no)
            if len(tokens) != 4 or tokens[1] != "edge":
                raise ParseError("problem line must be 'p edge <n> <m>'", line_no)
            n = _parse_int(tokens[2], "vertex count", line_no)
            _parse_int(tokens[3], "edge count", line_no)
            if n < 0:
                raise ParseError("vertex count must be non-negative", line_no)
        elif kind == "e":
            if n is None:
                raise ParseError("edge line before problem line", line_no)
            if len(tokens) != 3:
                raise ParseError("edge line must be 'e <u> <v>'", line_no)
            u = _parse_int(tokens[1], "vertex id", line_no)
            v = _parse_int(tokens[2], "vertex id", line_no)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"vertex id out of range 1..{n}", line_no)
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", line_no)
            edges.append((u - 1, v - 1))
        else:
            raise ParseError(f"unknown line type {kind!r}", line_no)
    if n is None:
        raise ParseError("missing problem line")
    return Graph(n, edges, id_base=1)


def _parse_plain(lines) -> Graph:
    n = None
    edges = []
    for line_no, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 2:
            raise ParseError("expected two whitespace-separated integers", line_no)
        a = _parse_int(tokens[0], "value", line_no)
        b = _parse_int(tokens[1], "value", line_no)
        if n is None:
            n = a
            if n < 0:
                raise ParseError("vertex count must be non-negative", line_no)
            continue
        if not (0 <= a < n and 0 <= b < n):
            raise ParseError(f"vertex id out of range 0..{n - 1}", line_no)
        if a == b:
            raise ParseError(f"self-loop at vertex {a}", line_no)
        edges.append((a, b))
    if n is None:
        raise ParseError("empty input")
    return Graph(n, edges, id_base=0)


def serialize_graph(g: Graph) -> str:
    """Canonical DIMACS-like form: edges sorted by (min endpoint, max endpoint)."""
    out = [f"p edge {g.n} {g.m}"]
    for u, v in g.edges():
        out.append(f"e {u + 1} {v + 1}")
    out.append("")
    return "\n".join(out)


def connected_components(g: Graph, removed=frozenset()):
    """Components of g after deleting the vertices in ``removed``.

    Returns ``(count, labels)`` where ``labels[v]`` is the component id of
    each surviving vertex and -1 for removed ones.  Component ids are
    assigned in increasing order of the smallest vertex they contain; the
    labelling itself is breadth-first.  ``count`` is 0 iff every vertex was
    removed.
    """
    n = g.n
    if not isinstance(removed, (set, frozenset)):
        removed = set(removed)
    labels = [-1] * n
    adj = g.adj
    count = 0
    for start in range(n):
        if labels[start] != -1 or start in removed:
            continue
        labels[start] = count
        queue = [start]
        head = 0
        if removed:
            while head < len(queue):
                v = queue[head]
                head += 1
                for w in adj[v]:
                    if labels[w] == -1 and w not in removed:
                        labels[w] = count
                        queue.append(w)
        else:
            while head < len(queue):
                v = queue[head]
                head += 1
                for w in adj[v]:
                    if labels[w] == -1:
                        labels[w] = count
                        queue.append(w)
        count += 1
    return count, labels

