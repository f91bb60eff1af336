"""Simple undirected graphs: parsing, serialization, components under deletion."""

from __future__ import annotations

import numpy as np

from .errors import ParseError

# Largest vertex count a graph may declare.  It bounds what a header line can
# make the parser allocate, and keeps the edge keys tail * n + head in int64.
MAX_VERTICES = 10**7


class Graph:
    """Immutable simple undirected graph with dense 0-based vertex ids.

    The CSR arrays are the only representation: ``csr()`` returns int64
    arrays ``(indptr, indices)``, and the neighbours of ``v`` are
    ``indices[indptr[v]:indptr[v + 1]]`` in increasing order.  Code that walks
    neighbours in Python reads those slices through memoryviews of
    ``indices`` and ``indptr``, which copy nothing.  ``id_base`` records the
    numbering used by the source file (1 for DIMACS-like files, 0 for plain
    edge lists) so that reports can echo the ids the user wrote.  Duplicate
    edges passed to the constructor are collapsed and counted.
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
        # groups them by tail with heads ascending, and a mask drops repeats
        # (np.unique is far slower).  They sort and divide as uint32 where
        # ``_key_dtypes`` says so, and the heads go back into the int64
        # buffer the keys were built in: a CSR allocated last sits at the
        # heap's top, and freeing it made glibc trim what the next parse faults in.
        # Narrow keys (more than ``_FLOOR``) take their row pointers from
        # where the runs of equal tails start, each row's start carried back
        # over the empty rows before it: ``np.bincount`` would first copy
        # the uint32 tails to int64.  On int64 tails it is the faster.
        half = len(u)
        wide = np.empty(2 * half, dtype=np.int64)
        np.multiply(u, n, out=wide[:half])
        wide[:half] += v
        np.multiply(v, n, out=wide[half:])
        wide[half:] += u
        keys = wide.astype(_key_dtypes(n, len(wide))[1], copy=False)
        keys.sort()
        fresh = _run_starts(keys)
        if not fresh.all():
            keys = keys[fresh]
        del fresh
        tails = keys // n
        indptr = np.zeros(n + 1, dtype=np.int64)
        if keys.dtype != wide.dtype:  # row t starts at the first key whose tail is >= t
            at = _run_starts(tails).nonzero()[0]
            indptr.fill(len(keys))
            indptr[tails[at]] = at
            np.minimum.accumulate(indptr[::-1], out=indptr[::-1])
            del at
        else:
            np.bincount(tails, minlength=n).cumsum(out=indptr[1:])
        tails *= n
        heads = np.subtract(keys, tails, out=keys if keys.dtype == wide.dtype else wide[:len(keys)])
        self._store(indptr, heads, half - len(heads) // 2, id_base)

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
        tails = np.arange(self.n, dtype=np.int64).repeat(indptr[1:] - indptr[:-1])
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
    The text's UTF-8 bytes are read by one numpy scan, whose checks run as
    array masks over the tokens and die before the graph is built (held
    longer, they cost repeated calls fresh pages).  The ParseError names the
    first faulty line, and the first check it fails in the order: line kind,
    token count, header numbers, vertex count, ids (u before v), id range,
    self-loop.
    """
    data = text.encode("utf-8", "surrogatepass")
    buf = np.frombuffer(data, dtype=np.uint8)
    bounds, head = _tokens(buf)
    if len(bounds) == 0:
        raise ParseError("empty input")
    first = head.nonzero()[0]  # first token of each non-blank line
    del head
    starts, ends = bounds.T
    at = starts[first]
    lead = buf[at]
    single = np.subtract(ends[first], at, out=at) == 1
    del at
    count = np.empty_like(first)  # tokens per line
    np.subtract(first[1:], first[:-1], out=count[:-1])
    count[-1] = len(bounds) - first[-1]

    def token(i):
        return buf[starts[i]:ends[i]].tobytes()

    def fault(message, at):  # the ParseError naming the line of byte ``at``
        return ParseError(message, _line_no(data, at))

    # A fault on the header line raises at once.  A later line of the wrong
    # kind or token count is held in ``pending`` while the ids of the lines
    # before it are read, and is raised only if they hold no fault.
    pending, stop = None, len(first)
    if single[0] and int(lead[0]) in b"cp":
        # DIMACS-like: past the comment lines, one p line, then e lines
        body = ~(single & (lead == ord("c")))
        p = int(body.argmax())  # the first line that is not a comment
        if not body[p]:
            raise ParseError("missing problem line")
        ok = (single & (lead == ord("e")) & (count == 3)) | ~body
        ok[p] = single[p] and lead[p] == ord("p") and count[p] == 4 and token(first[p] + 1) == b"edge"
        if not ok.all():
            stop = int(ok.argmin())
            kind = token(first[stop])
            message = _KIND_FAULTS.get(kind, (f"unknown line type {_text(kind)!r}",) * 2)[stop > p]
        body[:p + 1] = False
        body[stop:] = False
        header, line, base = first[p] + 2, first[body], 1
        line += 1
        what = "vertex count", "edge count", "vertex id"
        del body
    else:  # plain: a header line and edge lines of two numbers each
        p, ok = 0, count == 2
        if not ok.all():
            stop, message = int(ok.argmin()), "expected two whitespace-separated integers"
        header, line, base = first[0], first[1:stop], 0
        what = "value", "value", "value"
    if stop < len(first):
        pending = fault(message, starts[first[stop]])
        if stop == p:
            raise pending
    del first, count, lead, single, ok
    n = _int(token(header))
    for k, value in enumerate([n, _int(token(header + 1))]):
        if value is None:
            raise fault(f"expected integer {what[k]}, got {_text(token(header + k))!r}",
                        starts[header])
    if n < 0:
        raise fault("vertex count must be non-negative", starts[header])
    if n > MAX_VERTICES:
        raise fault(f"vertex count exceeds {MAX_VERTICES}", starts[header])
    # Edge line j's ids are tokens t and t + 1, whose four bounds lie side by
    # side from bounds[t, 0]; read as one 32-byte item, they go to item j of
    # the same memory ([start, end] of u, then of v).  Each line has two tokens
    # or more, so t >= 2j + 2: item j ends before the rows of lines j and on,
    # and a block, gathered before it is written, overwrites no row yet to read.
    rows = np.ndarray(len(bounds) - 1, "V32", bounds, strides=bounds.strides[:1])
    pairs = np.ndarray(len(line), "V32", bounds)
    for lo in range(0, len(line), _BLOCK):
        pairs[lo:lo + _BLOCK] = rows[line[lo:lo + _BLOCK]]
    ids = pairs.view(np.int64).reshape(-1, 2)
    del bounds, starts, ends, rows, pairs, line
    values, bad = _scan_ints(buf, ids[:, 0], ids[:, 1], b"-" in data)
    if bad < len(values):
        start, end = ids[bad]
        pending = fault(f"expected integer {what[2]}, got {_text(buf[start:end].tobytes())!r}", end)
        values = values[:bad - bad % 2]  # the lines before it
    values -= base
    u, v = values[0::2], values[1::2]
    if len(values) and (values.min() < 0 or values.max() >= n or (u == v).any()):
        out = (u < 0) | (u >= n) | (v < 0) | (v >= n)
        j = int((out | (u == v)).argmax())
        raise fault(f"vertex id out of range {base}..{n + base - 1}" if out[j]
                    else f"self-loop at vertex {u[j] + base}", ids[2 * j, 1])
    if pending is not None:
        raise pending
    del data, buf, ids
    return Graph._from_arrays(n, u, v, base)


# the fault of a p or e line that fails the DIMACS checks as the first line
# past the comments, and as a later line
_KIND_FAULTS = {b"p": ("problem line must be 'p edge <n> <m>'", "duplicate problem line"),
                b"e": ("edge line before problem line", "edge line must be 'e <u> <v>'")}
_BLOCK = 2**15  # ids or tokens per block of ``_tokens``, ``parse_graph`` and ``_scan_ints``: L2-sized
# Arrays of at most this many entries keep int64 and the plainest ops: below
# it, narrow dtypes and extra steps cost more in setup than they save.
_FLOOR = 1024


def _key_dtypes(base, count):
    """dtypes of the digits below ``base`` and of ``count`` keys a * base + b:
    uint16 and uint32, which sort and divide about twice as fast as int64,
    when they fit and there are more than ``_FLOOR`` keys; int64 otherwise."""
    return (np.uint16, np.uint32) if base <= 1 << 16 and count > _FLOOR else (np.int64, np.int64)


def _run_starts(keys):
    """Mask of the positions where a run of equal ``keys`` starts."""
    fresh = np.empty(len(keys), dtype=bool)
    fresh[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    return fresh


def _between(buf, lo, hi):
    """Mask of the bytes in lo..hi (uint8 arithmetic wraps the rest above)."""
    return buf - np.uint8(lo) <= np.uint8(hi - lo)


_BREAK_BYTES = b"\n\x0b\x0c\r\x1c\x1d\x1e"


def _breaks(buf):
    """Mask of the ASCII bytes ``str.splitlines()`` ends lines at, the
    ``_BREAK_BYTES``."""
    return _between(buf, 10, 13) | _between(buf, 28, 30)


def _line_no(data: bytes, at) -> int:
    """Number of the line that holds byte ``at`` of ``data``: 1 plus the line
    breaks before it, a CRLF counting once."""
    return 1 + sum(data.count(c, 0, at) for c in _BREAK_BYTES) - data.count(b"\r\n", 0, at)


def _tokens(buf):
    """``(bounds, head)`` of the tokens of the bytes ``buf``: token i is
    ``buf[bounds[i, 0]:bounds[i, 1]]``, and ``head[i]`` is True when it is
    the first token of its line.

    Tokens are cut at ASCII whitespace and lines at ASCII line breaks, as
    ``str.split`` and ``str.splitlines`` cut ASCII text; every byte from
    0x80 up is part of a token, so a token never splits a UTF-8 sequence.
    One scan of the space-padded bytes finds the starts and ends, alternating.

    Token 0 opens a line, and token i > 0 does iff the gap of whitespace
    ``buf[ends[i - 1]:starts[i]]`` before it (``starts, ends = bounds.T``)
    holds a line break.  Only the first and last byte of each gap are read,
    which settles every gap of one or two bytes (a CRLF, a trailing space, an
    indent); a longer gap with no break at either end is settled by a search
    over the break positions.  Where every gap is one byte, as counted from
    the whitespace, the last byte is the first and is not read again.

    The whitespace mask is written straight into the padded ``space`` array,
    each byte class through one reused uint8 temporary, so building it holds
    two bytes per byte of text: ``space`` and the temporary.
    """
    space = np.empty(len(buf) + 2, dtype=bool)
    space[0] = space[-1] = True
    # the ASCII bytes str.split() cuts at, 9..13 and 28..32
    mask, low = space[1:-1], np.empty(len(buf), dtype=np.uint8)
    np.less_equal(np.subtract(buf, np.uint8(9), out=low), np.uint8(4), out=mask)
    np.less_equal(np.subtract(buf, np.uint8(28), out=low), np.uint8(4), out=low.view(bool))
    mask |= low.view(bool)
    del mask, low
    whitespace = np.count_nonzero(space) - 2
    edges = space[1:] != space[:-1]
    del space
    bounds = edges.nonzero()[0].reshape(-1, 2)
    del edges
    starts, ends = bounds.T
    head = np.empty(len(bounds), dtype=bool)
    head[:1] = True
    head[1:] = _breaks(buf[ends[:-1]])  # the first byte of each gap
    # whitespace outside the gaps: before the first token and after the last
    outside = len(buf) - ends[-1] + starts[0] if len(bounds) else 0
    # some gap has two bytes or more
    if len(bounds) > 1 and whitespace - outside > len(bounds) - 1:
        # the gaps before tokens lo..hi - 1, _BLOCK at a time: their last
        # bytes' positions go to one reused buffer
        last = np.empty(min(len(bounds) - 1, _BLOCK), dtype=np.int64)
        wide = []  # tokens after an unsettled gap of three bytes or more
        for lo in range(1, len(bounds), _BLOCK):
            hi = min(lo + _BLOCK, len(bounds))
            at = np.subtract(starts[lo:hi], 1, out=last[:hi - lo])
            opens = head[lo:hi]
            opens |= _breaks(buf[at])
            np.subtract(at, ends[lo - 1:hi - 1], out=at)  # the gap's width - 1
            wide.append(((at > 1) & ~opens).nonzero()[0] + lo)
        wide = np.concatenate(wide)
        if len(wide):
            breaks = _breaks(buf).nonzero()[0]
            head[wide] = (breaks.searchsorted(starts[wide])
                          > breaks.searchsorted(ends[wide - 1]))
    return bounds, head


def _scan_ints(buf, starts, ends, signed=True):
    """``(values, bad)``: the tokens ``buf[starts[i]:ends[i]]`` as int64
    values, and the index of the first token that is not an integer, or
    ``len(values)`` if every one is.  Values past the block of the bad token
    are left 0.

    An integer is ``-?[0-9]+`` that ``int()`` reads, as ``_int`` reads the
    header's: ``int()`` caps the digits.  Leading zeros are dropped, and an
    integer of more than 18 digits even then, beyond any vertex id, reads as
    +-10**18.

    Ids are read right-aligned, ``_BLOCK`` at a time: where the block's
    widest id has w digits, pass k reads byte ``ends[i] - w + k`` of id i (0
    before id i starts).  Each block's digits are checked once, by their
    maximum.

    A block of more than ``_FLOOR`` ids whose widest has at most 4 digits
    sums its digits in uint16, and one of at most 9 digits in uint32: 9,999
    and 999,999,999 fit, so an id of digits only never wraps.  An id with a
    non-digit may wrap, but its maximum digit names it bad and its value is
    never used.  The sums are cast into the int64 values once per block.
    With ``signed`` False the caller has found no ``-`` in ``buf``, and the
    signs are neither gathered nor applied.
    """
    value = np.zeros(len(starts), dtype=np.int64)
    block = min(len(value), _BLOCK)
    pos = np.empty(block, dtype=np.int64)
    top, dig, lag = np.empty(block, np.uint8), np.empty(block, np.uint8), np.empty(block, np.uint8)
    for lo in range(0, len(value), _BLOCK):
        val = value[lo:lo + _BLOCK]
        wid, digit, most, skip = pos[:len(val)], dig[:len(val)], top[:len(val)], lag[:len(val)]
        np.subtract(ends[lo:lo + _BLOCK], starts[lo:lo + _BLOCK], out=wid)
        if signed:
            sign = buf[starts[lo:lo + _BLOCK]] == ord("-")
            wid -= sign
        huge = wide = (wid > 18).nonzero()[0]
        if len(wide):  # those with a nonzero byte before their last 18 digits go to _int
            cut = ends[lo:lo + _BLOCK][wide] - 18
            lead = np.stack((cut + 18 - wid[wide], cut), axis=1).ravel()  # [first digit, cut)
            low = int(lead.min())
            nonzero = np.logical_or.reduceat(buf[low:int(cut.max()) + 1] != ord("0"), lead - low)
            huge = wide[nonzero[::2]]
            wid[wide] = 18
            for i in huge.tolist():
                if _int(buf[starts[lo + i]:ends[lo + i]].tobytes()) is None:
                    wid[i] = 0  # read as no digits: a bad token
        w = int(wid.max())
        np.subtract(w, wid, out=skip, casting="unsafe")  # passes before id i starts: w if none
        at = np.subtract(ends[lo:lo + _BLOCK], w, out=wid)  # the widths are not read again
        most.fill(0)  # largest digit per id
        acc = val
        if len(val) > _FLOOR and w <= 9:
            acc = np.zeros(len(val), np.uint16 if w <= 4 else np.uint32)
        for k in range(w):
            buf.take(at, mode="clip", out=digit)
            digit -= np.uint8(ord("0"))  # wraps above 9 for non-digits
            np.putmask(digit, skip > k, 0)
            np.maximum(most, digit, out=most)
            acc *= 10
            acc += digit
            at += 1
        if acc is not val:
            val[...] = acc
        val[huge] = 10**18
        if signed:
            np.negative(val, out=val, where=sign)
        if skip.max() >= w or most.max() > 9:  # an id of no digits, or a non-digit
            return value, lo + int(((skip >= w) | (most > 9)).argmax())
    return value, len(value)


def _int(token: bytes) -> int | None:
    """``token`` as an int, or None if it is not ``-?[0-9]+`` (bytes.isdigit
    is ASCII) or is beyond the interpreter's limit on digits."""
    try:
        return int(token) if token.removeprefix(b"-").isdigit() else None
    except ValueError:
        return None


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
    labelling itself is breadth-first over slices of the CSR arrays, read
    through memoryviews as ``mcs_order`` reads them.  ``count`` is 0 iff
    every vertex was removed.  An id in ``removed`` outside ``0..n-1``
    raises ValueError.
    """
    indptr, indices = g.csr()
    bounds, flat = memoryview(indptr), memoryview(indices)
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
