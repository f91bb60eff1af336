"""Simple undirected graphs: parsing, serialization, components under deletion."""

from __future__ import annotations

import numpy as np

from .errors import InternalError, ParseError

# Largest vertex count a graph may declare.  It bounds what a header line can
# make the parser allocate, and keeps the edge keys tail * n + head in int64.
MAX_VERTICES = 10**7


class Graph:
    """Immutable simple undirected graph with dense 0-based vertex ids.

    The CSR arrays are the only representation: ``csr()`` returns int64
    arrays ``(indptr, indices)``, and the neighbours of ``v`` are
    ``indices[indptr[v]:indptr[v + 1]]`` in increasing order.  Code that walks
    neighbours in Python reads those slices of ``indices.tolist()``, bounded
    by ``indptr.tolist()``.  ``id_base`` records the numbering used by the
    source file (1 for DIMACS-like files, 0 for plain edge lists) so that
    reports can echo the ids the user wrote.  Duplicate edges passed to the
    constructor are collapsed and counted.
    """

    __slots__ = ("n", "m", "duplicate_edge_count", "id_base", "_csr")

    def __init__(self, n: int, edges=(), id_base: int = 1):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if n > MAX_VERTICES:
            raise ValueError(f"vertex count exceeds {MAX_VERTICES}")
        pairs = np.fromiter(edges, dtype=np.dtype((np.int64, 2)))
        u, v = pairs[:, 0], pairs[:, 1]
        out = (u < 0) | (u >= n) | (v < 0) | (v >= n)
        bad = out | (u == v)
        if bad.any():
            i = int(bad.argmax())
            if out[i]:
                raise ValueError(f"vertex id out of range: ({u[i]}, {v[i]})")
            raise ValueError(f"self-loop at vertex {u[i]}")
        self._build(n, u, v, id_base)

    @classmethod
    def _from_arrays(cls, n: int, u, v, id_base: int) -> Graph:
        """Graph from int64 endpoint arrays already checked for range and
        self-loops, with ``n <= MAX_VERTICES``."""
        g = cls.__new__(cls)
        g._build(n, u, v, id_base)
        return g

    def _build(self, n, u, v, id_base):
        # Both directions of every edge as keys tail * n + head; sorting
        # groups them by tail with heads ascending, and a mask drops repeats.
        # (np.unique is far slower on such wide-range keys.)
        half = len(u)
        keys = np.empty(2 * half, dtype=np.int64)
        np.multiply(u, n, out=keys[:half])
        keys[:half] += v
        np.multiply(v, n, out=keys[half:])
        keys[half:] += u
        keys.sort()
        fresh = np.ones(len(keys), dtype=bool)
        fresh[1:] = keys[1:] != keys[:-1]
        keys = keys[fresh]
        indices = keys % n
        keys //= n  # the tail of each entry
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys, minlength=n), out=indptr[1:])
        self._store(indptr, indices, half - len(keys) // 2, id_base)

    @classmethod
    def _from_csr(cls, indptr, indices, id_base: int) -> Graph:
        """Graph of int64 CSR arrays that are already symmetric, ascending
        within each row, and free of repeats and self-loops."""
        g = cls.__new__(cls)
        g._store(indptr, indices, 0, id_base)
        return g

    def _store(self, indptr, indices, duplicates, id_base):
        self.n = len(indptr) - 1
        self.m = len(indices) // 2
        self.duplicate_edge_count = duplicates
        self.id_base = id_base
        self._csr = (indptr, indices)

    def edges(self):
        """Iterate over each edge once as (u, v) with u < v, in sorted order."""
        indptr, indices = self._csr
        tails = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(indptr))
        upper = indices > tails
        return zip(tails[upper].tolist(), indices[upper].tolist())

    def csr(self):
        """Adjacency as numpy CSR arrays (indptr, indices), the stored form."""
        return self._csr

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def parse_graph(text: str) -> Graph:
    """Parse a graph file, auto-detecting one of two formats.

    1. DIMACS-like: ``p edge <n> <m>`` header, then ``e <u> <v>`` lines with
       1-based ids; ``c`` comment lines are ignored.
    2. Plain edge list: first line ``<n> <m>``, then ``<u> <v>`` 0-based.

    Numbers are ASCII decimal integers (``-?[0-9]+``), ``n`` is at most
    ``MAX_VERTICES``, and ``m`` is not compared with the edge lines.
    Duplicate edges are collapsed (the count is kept on the graph);
    self-loops and out-of-range ids raise ParseError.

    Only ASCII whitespace separates tokens and only ASCII line breaks end
    lines; any other character, a lone surrogate too, is part of a token.
    The text's UTF-8 bytes are read by one numpy scan, and text the scan
    rejects goes to ``_fault``, which raises the ParseError naming the first
    faulty line.
    """
    return _scan(text) or _fault(text)


def _scan(text: str) -> Graph | None:
    """Graph of ``text``, or None where ``_fault`` raises: its checks run as
    array masks over the tokens of the text's UTF-8 bytes, which die before
    the graph is built (held longer, they cost repeated calls fresh pages).
    """
    buf = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    starts, ends, head = _tokens(buf)
    if len(starts) == 0:
        return None
    first = np.flatnonzero(head)  # first token of each non-blank line
    count = np.diff(np.append(first, len(head)))
    del head
    lead = buf[starts[first]]
    single = ends[first] - starts[first] == 1

    def token(i):
        return buf[starts[i]:ends[i]].tobytes()

    if single[0] and int(lead[0]) in b"cp":
        # DIMACS-like: past the comment lines, one p line, then e lines
        body = ~(single & (lead == ord("c")))
        first, count, lead, single = first[body], count[body], lead[body], single[body]
        if not (len(first) and single[0] and lead[0] == ord("p") and count[0] == 4
                and token(first[0] + 1) == b"edge"
                and (single[1:] & (lead[1:] == ord("e")) & (count[1:] == 3)).all()):
            return None
        header, ids, base = first[0] + 2, first[1:] + 1, 1
    else:  # plain: a header line and edge lines of two numbers each
        if not (count == 2).all():
            return None
        header, ids, base = first[0], first[1:], 0
    del first, count, lead, single
    try:
        n = _parse_int(token(header), "vertex count", 0)
        _parse_int(token(header + 1), "edge count", 0)
    except ParseError:
        return None
    if not 0 <= n <= MAX_VERTICES:
        return None
    ids = np.concatenate((ids, ids + 1))
    id_starts, id_ends = starts[ids], ends[ids]
    del starts, ends, ids
    values = _scan_ints(buf, id_starts, id_ends)
    del buf, id_starts, id_ends
    if values is None:
        return None
    values -= base
    u, v = values[: len(values) // 2], values[len(values) // 2:]
    if ((u < 0) | (u >= n) | (v < 0) | (v >= n) | (u == v)).any():
        return None
    return Graph._from_arrays(n, u, v, base)


def _between(buf, lo, hi):
    """Mask of the bytes in lo..hi (uint8 arithmetic wraps the rest above)."""
    return buf - np.uint8(lo) <= hi - lo


def _spaces(buf):
    """Mask of the ASCII bytes ``str.split()`` separates tokens at."""
    return _between(buf, 9, 13) | _between(buf, 28, 32)


def _breaks(buf):
    """Mask of the ASCII bytes ``str.splitlines()`` ends lines at."""
    return _between(buf, 10, 13) | _between(buf, 28, 30)


def _tokens(buf):
    """``(starts, ends, head)`` of the tokens of the bytes ``buf``: token i
    is ``buf[starts[i]:ends[i]]``, and ``head[i]`` is True when it is the
    first token of its line.

    Tokens are cut at ASCII whitespace and lines at ASCII line breaks, as
    ``str.split`` and ``str.splitlines`` cut ASCII text; every byte from
    0x80 up is part of a token, so a token never splits a UTF-8 sequence.
    One scan of the space-padded bytes finds the starts and ends, alternating.
    """
    space = np.ones(len(buf) + 2, dtype=bool)
    space[1:-1] = _spaces(buf)
    starts, ends = np.flatnonzero(space[1:] != space[:-1]).reshape(-1, 2).T
    del space
    # The first token after each line break opens a line, and so does token 0.
    head = np.zeros(len(starts) + 1, dtype=bool)
    head[np.searchsorted(starts, np.flatnonzero(_breaks(buf)))] = True
    head[0] = True
    return starts, ends, head[:-1]


_BLOCK = 2**15  # ids per block of ``_scan_ints``, whose arrays then stay in L2 cache


def _scan_ints(buf, starts, ends):
    """The tokens ``buf[starts[i]:ends[i]]`` as int64 values, or None if one
    is not ``-?[0-9]+`` or is beyond 18 digits once leading zeros are dropped
    (too large for a vertex id).  Overwrites ``starts`` and ``ends``.

    Ids are read right-aligned, ``_BLOCK`` at a time: where the block's
    widest id has w digits, pass k reads byte ``ends[i] - w + k`` of id i (0
    before id i starts).  The digits are checked once, by their maximum.
    """
    value = np.zeros(len(starts), dtype=np.int64)
    neg = buf[starts] == ord("-")
    starts += neg
    width = np.subtract(ends, starts, out=starts)  # starts is not read again
    for i in np.flatnonzero(width > 18):
        if (buf[ends[i] - width[i]:ends[i] - 18] != ord("0")).any():
            return None
        width[i] = 18
    if width.min(initial=1) < 1:
        return None
    top = np.zeros(min(len(value), _BLOCK), dtype=np.uint8)  # largest digit per slot
    for lo in range(0, len(value), _BLOCK):
        val, pos, wid = value[lo:lo + _BLOCK], ends[lo:lo + _BLOCK], width[lo:lo + _BLOCK]
        dig, most = np.empty(len(val), dtype=np.uint8), top[:len(val)]
        w = int(wid.max())
        pos -= w  # ends is not read again
        for k in range(w):
            np.take(buf, pos, mode="clip", out=dig)
            dig -= np.uint8(ord("0"))  # wraps above 9 for non-digits
            np.putmask(dig, wid < w - k, 0)
            np.maximum(most, dig, out=most)
            val *= 10
            val += dig
            pos += 1
    if top.max(initial=0) > 9:
        return None
    np.negative(value, out=value, where=neg)
    return value


def _fault(text: str):
    """Raise the ParseError for the first faulty line of ``text``, which
    ``_scan`` rejected.

    Lines and tokens are cut where ``_tokens`` cuts them, and lines are
    numbered from 1 at each line break, a CRLF counting once.  The lines are
    walked in order with the format's checks.
    """
    data = text.encode("utf-8", "surrogatepass").replace(b"\r\n", b"\n")  # a CRLF ends one line
    buf = np.frombuffer(data, dtype=np.uint8)
    # Each line break made "\n" and any other whitespace " ", so that
    # split(b"\n") cuts the lines and split() their tokens.
    marked = np.where(_spaces(buf), np.uint8(ord(" ")), buf)
    marked[_breaks(buf)] = ord("\n")
    marked = marked.tobytes()
    dimacs = marked.split(maxsplit=1)[:1] in ([b"c"], [b"p"])
    base, n = int(dimacs), None
    for line_no, line in enumerate(marked.split(b"\n"), start=1):
        line = line.split()
        if not line or dimacs and line[0] == b"c":
            continue
        what = ("value", "value")
        if dimacs:  # strip the kind; p and e lines then hold two numbers
            kind = line.pop(0)
            if kind == b"p":
                if n is not None:
                    raise ParseError("duplicate problem line", line_no)
                if len(line) != 3 or line.pop(0) != b"edge":
                    raise ParseError("problem line must be 'p edge <n> <m>'", line_no)
            elif kind != b"e":
                raise ParseError(f"unknown line type {_text(kind)!r}", line_no)
            elif n is None:
                raise ParseError("edge line before problem line", line_no)
            elif len(line) != 2:
                raise ParseError("edge line must be 'e <u> <v>'", line_no)
            what = ("vertex count", "edge count") if n is None else ("vertex id", "vertex id")
        elif len(line) != 2:
            raise ParseError("expected two whitespace-separated integers", line_no)
        a = _parse_int(line[0], what[0], line_no)
        b = _parse_int(line[1], what[1], line_no)
        if n is None:
            if a < 0:
                raise ParseError("vertex count must be non-negative", line_no)
            if a > MAX_VERTICES:
                raise ParseError(f"vertex count exceeds {MAX_VERTICES}", line_no)
            n = a
        elif not (base <= a < n + base and base <= b < n + base):
            raise ParseError(f"vertex id out of range {base}..{n + base - 1}", line_no)
        elif a == b:
            raise ParseError(f"self-loop at vertex {a}", line_no)
    if n is None:
        raise ParseError("missing problem line" if dimacs else "empty input")
    raise InternalError("the scan rejected a graph file with no faulty line")


def _parse_int(token: bytes, what: str, line_no: int) -> int:
    if token.removeprefix(b"-").isdigit():  # -?[0-9]+, as bytes.isdigit is ASCII
        try:
            return int(token)
        except ValueError:  # beyond the interpreter's limit on digits
            pass
    raise ParseError(f"expected integer {what}, got {_text(token)!r}", line_no)


def _text(token: bytes) -> str:
    return token.decode("utf-8", "surrogatepass")


def serialize_graph(g: Graph) -> str:
    """Canonical DIMACS-like form: edges sorted by (min endpoint, max endpoint)."""
    out = [f"p edge {g.n} {g.m}"]
    for u, v in g.edges():
        out.append(f"e {u + 1} {v + 1}")
    out.append("")
    return "\n".join(out)


def connected_components(g: Graph, removed=()):
    """Components of g after deleting the vertices in ``removed``.

    Returns ``(count, labels)`` where ``labels[v]`` is the component id of
    each surviving vertex and -1 for removed ones.  Component ids are
    assigned in increasing order of the smallest vertex they contain; the
    labelling itself is breadth-first over slices of the CSR arrays, as
    ``mcs_order`` reads them.  ``count`` is 0 iff every vertex was removed.
    An id in ``removed`` outside ``0..n-1`` raises ValueError.
    """
    indptr, indices = g.csr()
    flat = indices.tolist()
    bounds = indptr.tolist()
    done = [False] * g.n  # labelled or removed
    for v in removed:
        if not 0 <= v < g.n:
            raise ValueError(f"removed vertex id out of range 0..{g.n - 1}: {v}")
        done[v] = True
    labels = [-1] * g.n
    count = 0
    for start in range(g.n):
        if done[start]:
            continue
        done[start] = True
        labels[start] = count
        queue = [start]
        for v in queue:  # the loop reaches what it appends
            for w in flat[bounds[v]:bounds[v + 1]]:
                if not done[w]:
                    done[w] = True
                    labels[w] = count
                    queue.append(w)
        count += 1
    return count, labels
