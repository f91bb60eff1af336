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
        self._build(n, pairs, id_base)

    @classmethod
    def _from_pairs(cls, n: int, pairs, id_base: int) -> Graph:
        """Graph from an (m, 2) int64 array of endpoints, C- or column-major
        contiguous, already checked for range and self-loops, with
        ``n <= MAX_VERTICES``.  The graph takes the array over: its memory
        becomes the CSR's indices."""
        g = cls.__new__(cls)
        g._build(n, pairs, id_base)
        return g

    def _build(self, n, pairs, id_base):
        # Both directions of every edge as keys tail * n + head, written over
        # the pairs; sorting groups them by tail with heads ascending, and a
        # mask drops repeats (np.unique is far slower).  They sort and divide
        # as uint32 where ``_key_dtypes`` says so, and the heads go back into
        # the pairs' memory.  So the CSR takes the memory the parse filled
        # last, above the parse's freed temporaries in the heap: a CSR built
        # in new memory lands in their holes, and freeing what lay above it
        # made glibc trim the pages that the next parse faults in again.
        # Narrow keys (more than ``_FLOOR``) take their row pointers from
        # where the runs of equal tails start, each row's start carried back
        # over the empty rows before it: ``np.bincount`` would first copy
        # the uint32 tails to int64.  On int64 tails it is the faster.
        half = len(pairs)
        u, v = pairs.T
        key = u * n
        key += v
        v *= n
        v += u
        u[...] = key
        del key, u, v
        wide = pairs.reshape(-1, order="A")  # a view of C- or column-major pairs
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
    The ParseError names the first faulty line, and the first check it fails
    in the order: line kind, token count, header numbers, vertex count, ids
    (u before v), id range, self-loop.

    A text in the layout ``serialize_graph`` writes is read from the
    positions of its separator bytes (``_separated``); any other text goes to
    the token scan (``_tokenized``), which reads every accepted layout.  Both
    end in the same checks of ``_parse``, so a fault inside the layout costs
    one pass either way and is named as the token scan names it.
    """
    g = _parse(text, _separated)
    if g is None:
        from .tokens import _tokenized
        g = _parse(text, _tokenized)
    return g


def __getattr__(name):  # the token scan's names, from the module that loads on first use
    if name in ("_tokens", "_breaks"):
        from . import tokens
        return getattr(tokens, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_DIMACS = 1, ("vertex count", "edge count", "vertex id")  # id base, header and id names
_PLAIN = 0, ("value", "value", "value")


def _parse(text, route):
    """The graph of ``text`` as ``route`` reads it, or None if the text is
    not in the route's layout.

    ``route(data, buf)`` gets the text's UTF-8 bytes and returns None or
    ``(header, at, (base, what), (starts, ends, shift, signed), pending)``:
    the header's two number tokens, a byte of the header line, the id base
    and names of ``_DIMACS`` or ``_PLAIN``, id k of edge line j as
    ``buf[starts[j, k] + shift[k]:ends[j, k]]`` (``signed`` if the text has a
    ``-``), and the fault of a later line held back (or None).  It raises a
    fault of the header line itself.  The checks run as array masks and die,
    with the bytes, before the graph is built (held longer, they cost
    repeated calls fresh pages).
    """
    data = text.encode("utf-8", "surrogatepass")
    buf = np.frombuffer(data, dtype=np.uint8)
    found = route(data, buf)
    if found is None:
        return None
    header, at, (base, what), (starts, ends, shift, signed), pending = found
    del found

    def fault(message, at):  # the ParseError naming the line of byte ``at``
        return ParseError(message, _line_no(data, at))

    n = _int(header[0])
    for k, value in enumerate([n, _int(header[1])]):
        if value is None:
            raise fault(f"expected integer {what[k]}, got {_text(header[k])!r}", at)
    if n < 0:
        raise fault("vertex count must be non-negative", at)
    if n > MAX_VERTICES:
        raise fault(f"vertex count exceeds {MAX_VERTICES}", at)
    values, bad = _scan_ints(buf, starts, ends, signed, shift)
    if bad < values.size:
        line, k = divmod(bad, 2)
        end = ends[line, k]
        token = buf[starts[line, k] + shift[k]:end].tobytes()
        if not token or b"\n" in token:  # a line break or gap out of place: not the layout
            return None
        pending = fault(f"expected integer {what[2]}, got {_text(token)!r}", end)
        values = values[:line]  # the lines before it
    values -= base
    u, v = values[:, 0], values[:, 1]
    if len(values) and (values.min() < 0 or values.max() >= n or (u == v).any()):
        out = (u < 0) | (u >= n) | (v < 0) | (v >= n)
        j = int((out | (u == v)).argmax())
        raise fault(f"vertex id out of range {base}..{n + base - 1}" if out[j]
                    else f"self-loop at vertex {u[j] + base}", ends[j, 0])
    if pending is not None:
        raise pending
    del data, buf, starts, ends, u, v
    return Graph._from_pairs(n, values, base)


def _separated(data, buf):
    """``_parse``'s route for the canonical layout, None for any other text.

    The layout: comment lines ``c <text>``, then ``p edge <n> <m>`` and edge
    lines ``e <u> <v>``; or ``<n> <m>`` and lines ``<u> <v>``.  Single
    spaces, header numbers of ASCII digits, and every line ended by the same
    LF or CRLF, the last line too.

    The header is read with ``bytes`` methods.  The separators are the bytes
    below ``'0'`` from the header's line break on, an LF that ends a CRLF
    excepted: one compare marks them, one ``nonzero`` lists them.  The text
    has the layout iff they run line break, space (space), line break, ...,
    and each line break but the last is followed by the rest of its CRLF and
    the ``e `` of a DIMACS line.  An id is then the bytes between two
    separators, read through strided views of their positions, with no copy.
    An id that is empty or holds a stray LF is out of the layout too;
    ``_parse`` finds it as a bad id and returns None.
    """
    lf = data.find(b"\n")
    eol = b"\r\n" if data[lf - 1:lf] == b"\r" else b"\n"
    head = 0  # where the header line starts
    if data.startswith(b"c "):  # comment lines up to the problem line
        head = data.find(b"\np") + 1
        lines = data.count(b"\n", 0, head)
        crs = lines if len(eol) == 2 else 0  # the CRs of their CRLFs
        if (not head or data.count(b"\nc ", 0, head) != lines - 1
                or data.count(b"\r\n", 0, head) != crs
                or sum(data.count(c, 0, head) for c in _BREAK_BYTES[1:]) != crs):
            return None
    end = data.find(b"\n", head) + 1  # where the edge lines start
    fields = data[head:end - len(eol)].split(b" ")
    dimacs = fields[:2] == [b"p", b"edge"]
    numbers = fields[2:] if dimacs else fields
    if (not end or not data.endswith(eol) or data[end - len(eol):end] != eol
            or len(numbers) != 2 or not (numbers[0].isdigit() and numbers[1].isdigit())):
        return None
    k = 2 + dimacs  # separators per edge line
    sep = buf < ord("0")
    if len(eol) == 2:
        sep &= buf != ord("\n")
    sep[:end - len(eol)] = False
    sep = sep.nonzero()[0]
    lines, rest = divmod(len(sep) - 1, k)
    mark = eol[:1]
    if rest or buf[sep].tobytes() != (mark + b" " * (k - 1)) * lines + mark:
        return None
    follow = eol[1:] + b"e " * dimacs
    if lines and follow:
        after = np.ndarray(len(data) - len(follow), f"S{len(follow)}", data, 1, (1,))
        if after[sep[:-1:k]].tobytes() != follow * lines:
            return None
    # the separators before and after the ids of line j: [k j + k - 2, k j + k - 1]
    # and [k j + k - 1, k j + k]
    starts, ends = (np.ndarray((lines, 2), sep.dtype, sep, i * sep.itemsize * (lines > 0),
                               (k * sep.itemsize, sep.itemsize)) for i in (k - 2, k - 1))
    shift = (1, 1) if dimacs else (len(eol), 1)
    return numbers, head, _DIMACS if dimacs else _PLAIN, (starts, ends, shift, False), None


_BLOCK = 2**15  # ids or tokens per block of ``_scan_ints`` and the token scan: L2-sized
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


_BREAK_BYTES = b"\n\x0b\x0c\r\x1c\x1d\x1e"


def _line_no(data: bytes, at) -> int:
    """Number of the line that holds byte ``at`` of ``data``: 1 plus the line
    breaks before it, a CRLF counting once."""
    return 1 + sum(data.count(c, 0, at) for c in _BREAK_BYTES) - data.count(b"\r\n", 0, at)


def _scan_ints(buf, starts, ends, signed=True, shift=0):
    """``(values, bad)``: the tokens ``buf[starts[i] + shift:ends[i]]`` as
    int64 values in an array shaped as ``starts``, and the index in the
    flattened array of the first token that is not an integer, or
    ``values.size`` if every one is.  Values past the block of the bad token
    are left 0.

    ``starts`` and ``ends`` may be strided views.  If they are 2-d, ``shift``
    gives each column's shift, and each column is read as one 1-d run and
    kept as one: the values come back as a column-major array, and the
    scratch arrays hold a block column by column (numpy runs an op on rows
    of two ids one row at a time).

    An integer is ``-?[0-9]+`` that ``int()`` reads, as ``_int`` reads the
    header's: ``int()`` caps the digits.  Leading zeros are dropped, and an
    integer of more than 18 digits even then, beyond any vertex id, reads as
    +-10**18.

    Ids are read right-aligned, ``_BLOCK`` at a time (whole rows of a 2-d
    array): where the block's widest id has w digits, pass k reads byte
    ``ends[i] - w + k`` of id i (0 before id i starts).  Each block's digits
    are checked once, by their maximum.

    A block of more than ``_FLOOR`` ids whose widest has at most 4 digits
    sums its digits in uint16, and one of at most 9 digits in uint32: 9,999
    and 999,999,999 fit, so an id of digits only never wraps.  An id with a
    non-digit may wrap, but its maximum digit names it bad and its value is
    never used.  The sums are cast into the int64 values once per block.
    With ``signed`` False the caller has found no ``-`` in ``buf``, and the
    signs are neither gathered nor applied.
    """
    value = np.zeros(starts.shape[::-1], dtype=np.int64)  # a 2-d one column by column
    per = value.size // len(starts) if len(starts) else 1  # ids per row
    lag = np.array(shift).reshape(-1, 1) if starts.ndim > 1 else shift
    shifted = np.count_nonzero(lag) > 0
    rows = max(_BLOCK // per, 1)
    block = min(value.size, rows * per)
    pos, acc64 = np.empty(block, dtype=np.int64), np.empty(block, dtype=np.int64)
    top, dig, pad = np.empty(block, np.uint8), np.empty(block, np.uint8), np.empty(block, np.uint8)
    for lo in range(0, len(starts), rows):
        first, last, val = starts[lo:lo + rows].T, ends[lo:lo + rows].T, value[..., lo:lo + rows]
        wid, digit, most, skip = pos[:val.size], dig[:val.size], top[:val.size], pad[:val.size]
        shaped = wid.reshape(val.shape)
        np.subtract(last, first, out=shaped)
        if shifted:
            shaped -= lag
        if signed:
            sign = (buf[first + lag] == ord("-")).reshape(-1)
            wid -= sign
        w = int(wid.max())
        huge = None
        if w > 18:  # ids with a nonzero byte before their last 18 digits go to _int
            wide = (wid > 18).nonzero()[0]
            end = last.flat[wide]
            cut = end - 18
            lead = np.stack((end - wid[wide], cut), axis=1).ravel()  # [first digit, cut)
            low = int(lead.min())
            nonzero = np.logical_or.reduceat(buf[low:int(cut.max()) + 1] != ord("0"),
                                             lead - low)[::2]
            huge = wide[nonzero]
            wid[wide] = 18
            for i, a, b in zip(huge.tolist(), lead[::2][nonzero].tolist(), end[nonzero].tolist()):
                digits = buf[a:b].tobytes()  # past the one sign the width left out
                if not digits.isdigit() or _int(digits) is None:
                    wid[i] = 0  # read as no digits: a bad token
            w = int(wid.max())
        np.subtract(w, wid, out=skip, casting="unsafe")  # passes before id i starts: w if none
        late = int(skip.max())  # the passes that read before some id starts
        np.subtract(last, w, out=shaped)  # where pass 0 reads: the widths are not read again
        most.fill(0)  # largest digit per id
        if val.size > _FLOOR and w <= 9:
            acc = np.zeros(val.size, np.uint16 if w <= 4 else np.uint32)
        else:
            acc = acc64[:val.size]
            acc.fill(0)
        for k in range(w):
            buf.take(wid, mode="clip", out=digit)
            digit -= np.uint8(ord("0"))  # wraps above 9 for non-digits
            if k < late:
                np.putmask(digit, skip > k, 0)
            np.maximum(most, digit, out=most)
            acc *= 10
            acc += digit
            wid += 1
        val[...] = acc.reshape(val.shape)
        if huge is not None:  # after the narrow sums, which cannot hold it
            val[np.unravel_index(huge, val.shape)] = 10**18
        if signed:
            np.negative(val, out=val, where=sign.reshape(val.shape))
        if late >= w or most.max() > 9:  # an id of no digits, or a non-digit
            bad = ((skip >= w) | (most > 9)).reshape(val.shape).T  # in row order
            return value.T, lo * per + int(bad.argmax())
    return value.T, value.size


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
