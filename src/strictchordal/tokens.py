"""The token scan: ``parse_graph``'s route for a text outside the canonical
layout, loaded with the first such text.  It reads every accepted layout."""

from __future__ import annotations

import numpy as np

from . import graph
from .errors import ParseError
from .graph import _DIMACS, _PLAIN, _line_no, _text

# the fault of a p or e line that fails the DIMACS checks as the first line
# past the comments, and as a later line
_KIND_FAULTS = {b"p": ("problem line must be 'p edge <n> <m>'", "duplicate problem line"),
                b"e": ("edge line before problem line", "edge line must be 'e <u> <v>'")}


def _tokenized(data, buf):
    """``_parse``'s route for any text: the token scan of ``_tokens``."""
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
        header, line, names = first[p] + 2, first[body], _DIMACS
        line += 1
        del body
    else:  # plain: a header line and edge lines of two numbers each
        p, ok = 0, count == 2
        if not ok.all():
            stop, message = int(ok.argmin()), "expected two whitespace-separated integers"
        header, line, names = first[0], first[1:stop], _PLAIN
    if stop < len(first):
        pending = ParseError(message, _line_no(data, starts[first[stop]]))
        if stop == p:
            raise pending
    del first, count, lead, single, ok
    numbers, at = (token(header), token(header + 1)), starts[header]
    # Edge line j's ids are tokens t and t + 1, whose four bounds lie side by
    # side from bounds[t, 0]; read as one 32-byte item, they go to item j of
    # the same memory ([start, end] of u, then of v).  Each line has two tokens
    # or more, so t >= 2j + 2: item j ends before the rows of lines j and on,
    # and a block, gathered before it is written, overwrites no row yet to read.
    rows = np.ndarray(len(bounds) - 1, "V32", bounds, strides=bounds.strides[:1])
    pairs = np.ndarray(len(line), "V32", bounds)
    block = graph._BLOCK
    for lo in range(0, len(line), block):
        pairs[lo:lo + block] = rows[line[lo:lo + block]]
    ids = pairs.view(np.int64).reshape(-1, 4)  # per line: start and end of u, then of v
    return numbers, at, names, (ids[:, 0::2], ids[:, 1::2], (0, 0), b"-" in data), pending


def _between(buf, lo, hi):
    """Mask of the bytes in lo..hi (uint8 arithmetic wraps the rest above)."""
    return buf - np.uint8(lo) <= np.uint8(hi - lo)


def _breaks(buf):
    """Mask of the ASCII bytes ``str.splitlines()`` ends lines at, the
    ``graph._BREAK_BYTES``."""
    return _between(buf, 10, 13) | _between(buf, 28, 30)


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
        # the gaps before tokens lo..hi - 1, a block at a time: their last
        # bytes' positions go to one reused buffer
        block = graph._BLOCK
        last = np.empty(min(len(bounds) - 1, block), dtype=np.int64)
        wide = []  # tokens after an unsettled gap of three bytes or more
        for lo in range(1, len(bounds), block):
            hi = min(lo + block, len(bounds))
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
