import contextlib
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (load_fixture, neighbours, path_graph, complete_graph, random_graph,
                      uf_components)
from strictchordal import Graph, connected_components, parse_graph, serialize_graph
from strictchordal import graph as graph_module
from strictchordal.errors import ParseError
from strictchordal.generator import GenParams, random_strictly_chordal

P3_TEXT = "p edge 3 2\ne 1 2\ne 2 3\n"


def test_parse_dimacs_path():
    g = parse_graph(P3_TEXT)
    assert (g.n, g.m) == (3, 2)
    assert neighbours(g) == [[1], [0, 2], [1]]
    assert g.id_base == 1


def test_parse_plain_zero_based():
    g = parse_graph("3 2\n0 1\n1 2\n")
    assert (g.n, g.m) == (3, 2)
    assert neighbours(g) == [[1], [0, 2], [1]]
    assert g.id_base == 0


def test_parse_fig2_g2_fixture():
    g = load_fixture("fig2_g2.gr")
    assert (g.n, g.m) == (13, 12)


def test_parse_comments_and_blank_lines():
    for text in [
        "c a comment\n\np edge 2 1\nc another\ne 1 2\n",
        "c a comment\r\n\r\np edge 2 1\r\nc another\r\ne 1 2\r\n",
        "c a\tcomment\n\np\tedge 2 1\nc another\ne\t1\t2\n",
        "\n  \n\t\np edge 2 1\ne 1 2\n",
        "c a commént, ünïcode\n\np edge 2 1\nc another\ne 1 2\n",
    ]:
        g = parse_graph(text)
        assert (g.n, g.m, neighbours(g)) == (2, 1, [[1], [0]])


_LONG = "1" * 5000  # beyond the interpreter's limit on digits for int()
_PADDED = "0" * 4400 + "1"
PARSE_ERRORS = [
    ("p edge 3 2\ne 1 1\n", "line 2: self-loop at vertex 1"),
    ("p edge 3 2\ne 0 2\n", "line 2: vertex id out of range 1..3"),  # ids are 1-based
    ("p edge 3 2\ne 1 4\n", "line 2: vertex id out of range 1..3"),
    ("p edge 3 2\ne 1\n", "line 2: edge line must be 'e <u> <v>'"),
    ("p edge 3\ne 1 2\n", "line 1: problem line must be 'p edge <n> <m>'"),
    ("e 1 2\n", "line 1: expected two whitespace-separated integers"),  # a plain file
    ("p edge 3 2\nx 1 2\n", "line 2: unknown line type 'x'"),
    ("3 2\n0 0\n", "line 2: self-loop at vertex 0"),
    ("3 2\n0 3\n", "line 2: vertex id out of range 0..2"),
    ("3 2\n0 1 2\n", "line 2: expected two whitespace-separated integers"),
    ("", "empty input"),
    ("p edge 100000000000 0\n", "line 1: vertex count exceeds 10000000"),
    ("100000000000 0\n", "line 1: vertex count exceeds 10000000"),
    ("p edge 3 2\ne +1 2\n", "line 2: expected integer vertex id, got '+1'"),
    ("p edge 3 2\ne 1_0 2\n", "line 2: expected integer vertex id, got '1_0'"),
    ("c only\n\nc comments\n", "missing problem line"),
    ("c x\ne 1 2\n", "line 2: edge line before problem line"),
    ("p edge 3 2\np edge 3 2\n", "line 2: duplicate problem line"),
    # two faults: the earlier line is named, whichever check the scan failed first
    ("p edge 3 2\ne 1 4\ne 1 1\n", "line 2: vertex id out of range 1..3"),
    ("p edge 3 2\ne 1 x\ne 1\n", "line 2: expected integer vertex id, got 'x'"),
    ("3 2\n0 1\n0 0\n0 1 2\n", "line 3: self-loop at vertex 0"),
    # line numbers after CRLF, CR and form-feed breaks, blank lines among them
    ("p edge 3 2\r\n\r\ne 1 2\r\ne 2 2\r\n", "line 4: self-loop at vertex 2"),
    ("3 2\r0 1\r\r1 1\r", "line 4: self-loop at vertex 1"),
    ("p edge 3 2\x0ce 1 2\x0c\x0ce 1 5\n", "line 4: vertex id out of range 1..3"),
    ("c a\r\n\rp edge 3 2\r\n\x0c\r\ne 1 2\r\r\ne 3 3\n", "line 8: self-loop at vertex 3"),
    (f"p edge 3 2\ne {_LONG} 2\n", f"line 2: expected integer vertex id, got '{_LONG}'"),
    (f"p edge 3 {_LONG}\n", f"line 1: expected integer edge count, got '{_LONG}'"),
    # an id zero-padded past int()'s digit limit reads as its value
    (f"3 2\n{_PADDED} 2\n0 0\n", "line 3: self-loop at vertex 0"),
]


@pytest.mark.parametrize("text, message", PARSE_ERRORS,
                         ids=[text if len(text) < 100 else f"{len(text)} chars"
                              for text, _ in PARSE_ERRORS])
def test_parse_errors(text, message):
    with pytest.raises(ParseError) as info:
        parse_graph(text)
    assert str(info.value) == message


def test_parse_reads_non_ascii_only_inside_tokens():
    # Non-ASCII whitespace and line breaks are token characters.
    with pytest.raises(ParseError, match="^line 2: edge line must be 'e <u> <v>'$"):
        parse_graph("p edge 3 2\ne 1\xa02\n")
    g = parse_graph("c x\u2028e 1 2\np edge 2 1\ne 1 2\n")  # one comment line
    assert (g.n, g.m) == (2, 1)
    with pytest.raises(ParseError, match="^line 3: self-loop at vertex 1$"):
        parse_graph("c x\u2028e 1 2\np edge 2 1\ne 1 1\n")
    # A lone surrogate (an undecodable byte read with surrogateescape) is
    # read in a comment and named in an id.
    assert parse_graph("c \ud800 \udce9\np edge 2 1\ne 1 2\n").m == 1
    with pytest.raises(ParseError) as info:
        parse_graph("p edge 2 1\ne 1\ud800 2\n")
    assert str(info.value) == "line 2: expected integer vertex id, got '1\\ud800'"


# Lines as the two formats write them, and junk, from a small token alphabet;
# numbers include leading zeros (past int()'s digit limit too), signs and
# values of 19 digits.
_NUM = st.sampled_from(["0", "1", "2", "3", "4", "-1", "-0", "007", "1" * 19,
                        "0" * 19 + "2", "1" + "0" * 18 + "3", "+1", "1_0", "0:", "/", _PADDED])
_WORD = st.sampled_from(["p", "e", "c", "edge"])
_LINE = st.one_of(
    st.tuples(st.just("e"), _NUM, _NUM),
    st.tuples(st.just("e"), _NUM, _NUM),
    st.tuples(_NUM, _NUM),
    st.tuples(_NUM, _NUM),
    st.tuples(st.just("c"), _WORD, _NUM),
    st.tuples(st.just("p"), st.just("edge"), _NUM, _NUM),
    st.lists(st.one_of(_WORD, _NUM), max_size=4).map(tuple),
)
_GAP = st.sampled_from([" ", "\t", " \t ", "\x1f"])
_BREAK = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\x0b", "\n\n", "\n \n", "\x1c",
                          " \n ", "\t\x0c ", " \r\n\t"])


@st.composite
def _graph_texts(draw):
    dimacs = draw(st.booleans())
    ids = ["1", "2", "3", "4"] if dimacs else ["0", "1", "2", "3"]
    some_id = st.sampled_from(ids)
    pair = st.one_of(*[st.permutations(ids).map(lambda p: p[:2])] * 4,
                     st.tuples(some_id, _NUM), st.tuples(_NUM, some_id))
    edge = pair.map(lambda p: ("e", *p) if dimacs else tuple(p))
    header = st.just(("p", "edge", "12", "2") if dimacs else ("12", "2"))
    # now and then a token too many or too few
    edge, header = (s.flatmap(lambda t: st.sampled_from([t, t, t, t + ("1",), t[:-1]]))
                    for s in (edge, header))
    lines = [draw(header)] + draw(st.lists(st.one_of(edge, edge, edge, _LINE), max_size=6))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), ("c", "x"))
    text = draw(st.sampled_from(["", "\n", " "]))
    for line in lines:
        for i, token in enumerate(line):
            text += (draw(_GAP) if i else "") + token
        text += draw(_BREAK)
    return text


# the ASCII bytes str.split() cuts at; bytes from 0x80 up are token bytes
_SPACE = np.array([c < 128 and chr(c).isspace() for c in range(256)])


def test_scan_byte_classes_match_str_methods():
    chars = [chr(c) for c in range(128)]
    buf = np.arange(128, dtype=np.uint8)
    # a byte between two tokens separates them iff it is a space
    cuts = [len(graph_module._tokens(np.frombuffer(f"a{c}a".encode(), np.uint8))[0]) == 2
            for c in chars]
    assert cuts == [c.isspace() for c in chars]
    assert graph_module._breaks(buf).tolist() == [len(f"a{c}a".splitlines()) == 2 for c in chars]
    assert graph_module._breaks(buf).nonzero()[0].tolist() == list(graph_module._BREAK_BYTES)


def _reference_tokens(data: bytes):
    """(starts, ends, head) of the tokens of ``data``: each space byte is
    marked " " and each break byte "\\n", and the marked bytes are cut with
    ``split(b"\\n")`` and ``split()``."""
    buf = np.frombuffer(data, dtype=np.uint8)
    marked = np.where(_SPACE[buf], np.uint8(ord(" ")), buf)
    marked[graph_module._breaks(buf)] = ord("\n")
    starts, ends, head = [], [], []
    offset = 0
    for line in marked.tobytes().split(b"\n"):
        at = 0
        for i, token in enumerate(line.split()):
            at = line.index(token, at)
            starts.append(offset + at)
            ends.append(offset + at + len(token))
            head.append(i == 0)
            at += len(token)
        offset += len(line) + 1
    return starts, ends, head


# token bytes (a digit, a letter, a control byte, a UTF-8 byte) and runs of
# every ASCII space and break byte, among them gaps with whitespace on both
# sides of a break
_TOKEN_PIECES = st.sampled_from([b"1", b"e", b"\x00", b"\xc3"])
_WHITESPACE = [bytes([c]) for c in range(128) if chr(c).isspace()]
_GAPS = st.one_of(
    st.lists(st.sampled_from(_WHITESPACE), min_size=1, max_size=4).map(b"".join),
    st.sampled_from([b" \n ", b"\t\x0c ", b" \r\n\t", b"  \t", b" \x1c\x1d "]))


def _assert_tokens_match_reference(data):
    bounds, head = graph_module._tokens(np.frombuffer(data, dtype=np.uint8))
    starts, ends = bounds.T
    assert (starts.tolist(), ends.tolist(), head.tolist()) == _reference_tokens(data)


@pytest.mark.parametrize("data", [
    b"", b" ", b"\n", b" \r\n\t", b"1", b"1 \n 2", b"1\t\x0c 2", b"1 \r\n\t2",
    b"1 \n2", b"1\r 2", b"1\r\n2", b"1  2", b" \n 1 2 \n\n  3 \t\n",
    b"\t1  2   3\x1c\x1d 4\r\n\r\n", b"1 2  \n", b"  \n1",
])
def test_tokens_heads_match_split_lines(data):
    _assert_tokens_match_reference(data)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(_TOKEN_PIECES, _GAPS), max_size=30).map(b"".join))
def test_tokens_heads_match_split_lines_on_any_gaps(data):
    _assert_tokens_match_reference(data)


@pytest.mark.parametrize("block", [1, 2, 5])
def test_tokens_settle_gaps_block_by_block(block, monkeypatch):
    # gaps of two bytes or more are read _BLOCK tokens at a time; wide gaps
    # fall on every side of each block boundary
    monkeypatch.setattr(graph_module, "_BLOCK", block)
    rng = random.Random(block)
    pieces = [b"1", b"e", b"\xc3", b"\r\n", b" \n ", b"  \t", b"\t\x0c ", b" \x1c\x1d "]
    for _ in range(300):
        _assert_tokens_match_reference(b"".join(rng.choices(pieces, k=rng.randint(0, 30))))


@settings(max_examples=500, deadline=None)
@given(_graph_texts())
def test_fault_names_the_first_faulty_line(text):
    # The lines before the one named hold no fault: they parse, or lack only
    # what a later line would have given (the header, any line at all).  Cut
    # after the named line, the text fails there, as it did whole.
    try:
        parse_graph(text)
    except ParseError as exc:
        if exc.line_no is not None:
            lines = text.splitlines(keepends=True)
            try:
                parse_graph("".join(lines[:exc.line_no - 1]))
            except ParseError as earlier:
                assert earlier.line_no is None
            with pytest.raises(ParseError) as cut:
                parse_graph("".join(lines[:exc.line_no]))
            assert cut.value.line_no == exc.line_no


# Digits, the format's words, signs, ASCII and Unicode whitespace and line
# breaks, decimal digits of other scripts (which int() reads but the format
# does not allow) and a lone surrogate (which strict UTF-8 cannot encode).
_PIECES = (list("0123456789") + ["p", "e", "c", "edge", "-", "+"]
           + [" ", "\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
              "\x1f", "\x85", "\xa0", "\u2003", "\u2028", "\u2029", "\u3000"]
           + ["\u0663", "\u0967", "\uff15", "\U0001d7d9", "\ud800"])


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join))
def test_parse_raises_only_parse_error(text):
    try:
        parse_graph(text)
    except ParseError:
        pass


def _id_token(rng, value):
    """``value`` written 1 to 25 characters wide: zero-padded, and a zero
    now and then as ``-0``."""
    if value == 0 and rng.random() < 0.3:
        return "-" + "0" * rng.randint(1, 24)
    digits = str(value)
    return digits.zfill(rng.randint(len(digits), 25))


def test_scan_reads_ids_as_int_does():
    # ids 1 to 25 characters wide mixed in one file, many with leading
    # zeros past 18 digits; the first id sits right after a short header
    # (its digit window starts before the text), and the last id ends the
    # text in about half the files
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.choice([2, 3, 10, 1000, 10**6])
        pairs = [rng.sample(range(min(n, 4) if rng.random() < 0.2 else n), 2)
                 for _ in range(rng.randint(1, 300))]
        rows = [[_id_token(rng, u), _id_token(rng, v)] for u, v in pairs]
        text = f"{n} {len(rows)}\n" + "\n".join(map(" ".join, rows))
        text += rng.choice(["", "\n"])
        expected = Graph(n, [(int(a), int(b)) for a, b in rows], id_base=0)
        g = parse_graph(text)
        assert (g.n, g.m, g.duplicate_edge_count) == (n, expected.m, expected.duplicate_edge_count)
        assert all(np.array_equal(x, y) for x, y in zip(g.csr(), expected.csr()))
        # a bare sign in place of one id is named on its line
        line = rng.randrange(len(rows))
        rows[line][rng.randrange(2)] = "-"
        text = f"{n} {len(rows)}\n" + "\n".join(map(" ".join, rows))
        with pytest.raises(ParseError) as info:
            parse_graph(text)
        assert str(info.value) == f"line {line + 2}: expected integer value, got '-'"


def test_scan_ints_matches_int_up_to_the_digit_limit(monkeypatch):
    # a small block puts block edges all through the tokens
    for block in (2, 64, 2**15):
        monkeypatch.setattr(graph_module, "_BLOCK", block)
        rng = random.Random(3)
        tokens = []
        for _ in range(5000):
            digits = str(rng.randrange(10 ** rng.randint(1, 18)))
            tokens.append(rng.choice(["", "-"]) + digits.zfill(rng.randint(len(digits), 25)))
        buf = np.frombuffer(" ".join(tokens).encode(), dtype=np.uint8)
        ends = np.cumsum([len(t) + 1 for t in tokens]) - 1
        starts = ends - [len(t) for t in tokens]
        values, bad = graph_module._scan_ints(buf, starts, ends)
        assert (values.tolist(), bad) == (list(map(int, tokens)), len(tokens))
        # a bad byte anywhere is named by its index, with the values before it
        # read; a value of 19 significant digits reads as out of range of any id
        for token, named in [("1" + "0" * 18, False), ("-" + "9" * 19, False), ("1-2", True),
                             ("12a", True), ("-", True), ("+1", True), ("1" * 5000, True)]:
            i = rng.randrange(len(tokens))
            some = tokens[:i] + [token] + tokens[i + 1:]
            buf = np.frombuffer(" ".join(some).encode(), dtype=np.uint8)
            ends = np.cumsum([len(t) + 1 for t in some]) - 1
            values, bad = graph_module._scan_ints(buf, ends - [len(t) for t in some], ends)
            assert values[:i].tolist() == list(map(int, some[:i])), token
            if named:
                assert bad == i, token
            else:
                assert bad == len(some) and abs(values[i]) > graph_module.MAX_VERTICES, token
                assert values[i + 1:].tolist() == list(map(int, some[i + 1:])), token


def _reference_scan_ints(tokens):
    """``_scan_ints``' result token by token with ``_int``: the values up to
    the first token that is not an integer, any beyond 18 digits as
    +-10**18, and that token's index."""
    values = []
    for token in tokens:
        value = graph_module._int(token)
        if value is None:
            break
        values.append(max(-10**18, min(value, 10**18)))
    return values, len(values)


# bytes that are not digits, among them bytes a uint16 or uint32 sum of
# digits could wrap around on (0xff - 0x30 = 207)
_NON_DIGITS = b"-+:/. ax\x00\x7f\x80\xc3\xff"


@pytest.mark.parametrize("signed", [True, False])
def test_scan_ints_matches_a_reference_on_random_tokens(monkeypatch, signed):
    # widths on both sides of the uint16, uint32 and 18-digit switches,
    # blocks above and below the narrow floor, arrays over several blocks
    rng = random.Random(23 + signed)
    bad_bytes = _NON_DIGITS if signed else _NON_DIGITS.replace(b"-", b"")
    for case in range(400):
        monkeypatch.setattr(graph_module, "_BLOCK", rng.choice([700, 1500, 2**15]))
        width = rng.choice([4, 5, 9, 10, 18, 19, rng.randint(1, 25)])
        tokens = []
        for _ in range(rng.choice([rng.randint(1, 50), rng.randint(1000, 4000)])):
            digits = str(rng.randrange(10 ** rng.randint(1, width))).zfill(rng.randint(1, width))
            sign = "-" if signed and rng.random() < 0.2 else ""
            tokens.append((sign + digits).encode())
        tokens[rng.randrange(len(tokens))] = b"9" * width  # a widest token in some block
        for _ in range(rng.choice([0, 0, 1, 3])):  # a non-digit byte in some tokens
            i = rng.randrange(len(tokens))
            at = rng.randrange(len(tokens[i]))
            tokens[i] = tokens[i][:at] + bytes([rng.choice(bad_bytes)]) + tokens[i][at + 1:]
        buf = np.frombuffer(b" ".join(tokens), dtype=np.uint8)
        ends = np.cumsum([len(t) + 1 for t in tokens]) - 1
        starts = ends - [len(t) for t in tokens]
        values, bad = graph_module._scan_ints(buf, starts, ends, signed)
        expected, first_bad = _reference_scan_ints(tokens)
        assert (values[:bad].tolist(), bad) == (expected, first_bad), (case, width)


@pytest.mark.parametrize("bad, message", [
    ("1:", "expected integer value, got '1:'"),  # 1 * 10 + (":" - "0") = 20 if unchecked
    ("-", "expected integer value, got '-'"),
    ("0" * 19 + "100", "vertex id out of range 0..99"),
])
@pytest.mark.parametrize("where", ["u", "v"])
def test_fault_in_a_later_block_of_ids_is_named(bad, message, where):
    # the ids are read u's first, then v's, in blocks of _BLOCK; the last
    # edge line's u and v both lie beyond the first block
    m = graph_module._BLOCK + 1000
    rows = [["0", "1"] if i % 2 else ["2", "3"] for i in range(m)]
    rows[-1][where == "v"] = bad
    text = f"100 {m}\n" + "".join(f"{u} {v}\n" for u, v in rows)
    with pytest.raises(ParseError) as info:
        parse_graph(text)
    assert str(info.value) == f"line {m + 1}: {message}"


def test_parse_peak_memory_stays_within_ten_times_the_text():
    # the scan's per-token arrays are its temporaries; keeping them alive
    # past their use (or a copy of the bytes) shows here
    text = serialize_graph(random_strictly_chordal(
        GenParams(seed=1, target_n=3200, max_block_size=30, max_twins=2)))
    assert 700_000 < len(text) < 900_000
    parse_graph(text)
    tracemalloc.start()
    try:
        parse_graph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * len(text), peak / len(text)


def _layout_text(g, layout):
    text = serialize_graph(g)
    if layout in ("plain", "padded"):  # padded: every id zero-padded to 20 digits
        w = 20 if layout == "padded" else 0
        text = f"{g.n} {g.m}\n" + "".join(f"{u:0{w}} {v:0{w}}\n" for u, v in g.edges())
    elif layout == "crlf":
        text = text.replace("\n", "\r\n")
    return text


def _parse_peak_ratio(text):
    """Peak traced memory of one parse, or of its ParseError, over the length
    of the text."""
    tracemalloc.start()
    try:
        with contextlib.suppress(ParseError):
            parse_graph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / len(text)


# Peaks measured 7.7, 7.1 and 7.2 times the text: the ids' bounds are gathered
# into the token bounds' own memory, which dies before the edges are built.
# Gathering them into new arrays beside the token bounds peaks near 9.6.
@pytest.mark.parametrize("layout, bound", [("dimacs", 8), ("plain", 7.5), ("crlf", 8.5)])
def test_parse_peak_memory_frees_the_token_bounds_before_reading_ids(layout, bound):
    g = random_strictly_chordal(GenParams(seed=1, target_n=3200, max_block_size=30, max_twins=2))
    text = _layout_text(g, layout)
    # the ids of its 71,966 edge lines are gathered in three blocks
    assert all(np.array_equal(x, y) for x, y in zip(parse_graph(text).csr(), g.csr()))
    ratio = _parse_peak_ratio(text)
    assert ratio <= bound, ratio


# Ids zero-padded to 20 digits leave few tokens for the bytes, so the
# whitespace mask over every byte sets the peak: measured 3.1 times the text
# with the mask written in place, 5.0 with temporaries per byte class.
def test_parse_peak_memory_of_zero_padded_ids_stays_within_four_times_the_text():
    g = random_strictly_chordal(GenParams(seed=1, target_n=3200, max_block_size=30, max_twins=2))
    text = _layout_text(g, "padded")
    assert all(np.array_equal(x, y) for x, y in zip(parse_graph(text).csr(), g.csr()))
    ratio = _parse_peak_ratio(text)
    assert ratio <= 4, ratio


def test_crlf_parse_peaks_no_higher_than_lf():
    # CRLF gaps have two bytes, so their last bytes are read too: a block at
    # a time, through no index as long as the tokens
    g = random_strictly_chordal(GenParams(seed=1, target_n=3200, max_block_size=30, max_twins=2))
    lf, crlf = _layout_text(g, "dimacs"), _layout_text(g, "crlf")
    parse_graph(crlf)
    assert _parse_peak_ratio(crlf) <= _parse_peak_ratio(lf)


@pytest.fixture(scope="module")
def megabyte_text():
    return serialize_graph(random_strictly_chordal(
        GenParams(seed=1, target_n=4000, max_block_size=30, max_twins=2)))


def _last_line_fault(text, fault):
    """``text`` with its last edge line ``e u v`` made ``e u u`` or ``e u x``,
    and the message that names it."""
    body, last = text[:-1].rsplit("\n", 1)
    u = last.split()[1]
    line = "line %d: " % text.count("\n")
    if fault == "self-loop":
        return f"{body}\ne {u} {u}\n", f"{line}self-loop at vertex {u}"
    return f"{body}\ne {u} x\n", f"{line}expected integer vertex id, got 'x'"


def _best_parse_s(text):
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        with contextlib.suppress(ParseError):
            parse_graph(text)
        best = min(best, time.perf_counter() - start)
    return best


# The fault is found by the scan's own masks; naming it reads only the bytes
# before its line again, so it costs about one parse (a second, line-by-line
# pass over the text cost 7.6 parses).
@pytest.mark.parametrize("fault", ["self-loop", "non-integer"])
def test_a_fault_on_the_last_line_costs_about_one_parse(megabyte_text, fault):
    assert 900_000 < len(megabyte_text) < 1_200_000
    text, message = _last_line_fault(megabyte_text, fault)
    with pytest.raises(ParseError) as info:
        parse_graph(text)
    assert str(info.value) == message
    ratio = _best_parse_s(text) / _best_parse_s(megabyte_text)
    assert ratio <= 3, ratio


# Each block's ids of more than 18 digits have the bytes before their last 18
# checked by one pass over the block's bytes.  Measured 4.1-4.3 with a text
# 4.5 times as long; a loop over the wide ids in Python measured 38-55.
def test_zero_padded_ids_cost_about_one_parse(megabyte_text):
    g = parse_graph(megabyte_text)
    text, padded = _layout_text(g, "plain"), _layout_text(g, "padded")
    assert all(np.array_equal(x, y) for x, y in zip(parse_graph(padded).csr(), g.csr()))
    ratio = _best_parse_s(padded) / _best_parse_s(text)
    assert ratio <= 8, ratio


@pytest.mark.parametrize("block", [2, 2**15])
def test_wide_ids_keep_their_values_and_bad_index_at_block_edges(monkeypatch, block):
    # at block 2 every id is first or last in its block
    monkeypatch.setattr(graph_module, "_BLOCK", block)
    g = random_strictly_chordal(GenParams(seed=2, target_n=60, max_block_size=5, max_twins=2))
    rng = random.Random(5)
    rows = [[str(u).zfill(rng.randint(1, 25)), str(v).zfill(rng.randint(1, 25))]
            for u, v in g.edges()]
    text = f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in rows)
    assert all(np.array_equal(x, y) for x, y in zip(parse_graph(text).csr(), g.csr()))
    for token in ["0" * 4 + "1" + "0" * 19, "0" * 24 + "1x"]:
        message = (f"vertex id out of range 0..{g.n - 1}" if token.isdigit()
                   else f"expected integer value, got '{token}'")
        for line in (0, 1, g.m // 2, g.m - 1):
            for k in (0, 1):
                some = [list(row) for row in rows]
                some[line][k] = token
                text = f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in some)
                with pytest.raises(ParseError) as info:
                    parse_graph(text)
                assert str(info.value) == f"line {line + 2}: {message}"


@pytest.mark.parametrize("fault", ["self-loop", "non-integer"])
def test_a_fault_on_the_last_line_peaks_no_higher_than_a_parse(megabyte_text, fault):
    text, _ = _last_line_fault(megabyte_text, fault)
    ratio = _parse_peak_ratio(text) / _parse_peak_ratio(megabyte_text)
    assert ratio <= 1.1, ratio


# On the separator route the ids' bounds are strided views of the separator
# positions, with no table of token bounds: measured 5.5 and 5.6 times the
# text, where the token scan peaks at 7.7 and 7.1.
@pytest.mark.parametrize("layout, bound", [("dimacs", 7.7), ("plain", 7.1)])
def test_separator_route_peaks_below_the_token_scan(layout, bound):
    g = random_strictly_chordal(GenParams(seed=1, target_n=3200, max_block_size=30, max_twins=2))
    text = _layout_text(g, layout)
    assert graph_module._parse(text, graph_module._separated) is not None
    ratio = _parse_peak_ratio(text)
    assert ratio < bound, ratio


# A text that fails the layout check pays one separator scan before the
# token scan reads it: measured 1.5 parses of the canonical text.
def test_a_layout_break_on_the_last_line_costs_about_one_parse(megabyte_text):
    body, last = megabyte_text[:-1].rsplit("\n", 1)
    text = body + "\n" + last.replace(" ", "\t", 1) + "\n"
    assert graph_module._parse(text, graph_module._separated) is None
    csr = parse_graph(megabyte_text).csr()
    assert all(np.array_equal(x, y) for x, y in zip(parse_graph(text).csr(), csr))
    ratio = _best_parse_s(text) / _best_parse_s(megabyte_text)
    assert ratio <= 3, ratio


def test_a_doubled_sign_before_a_wide_id_is_not_an_integer():
    # the width leaves one sign out, and the bytes past it must be digits
    token = "--" + "1" * 19
    with pytest.raises(ParseError) as info:
        parse_graph(f"3 1\n0 {token}\n")
    assert str(info.value) == f"line 2: expected integer value, got '{token}'"


@pytest.mark.parametrize("bad", ["a" * 20, "1" * 19 + "x"])
def test_a_wide_bad_id_among_narrow_ones_is_named(bad):
    # the block's other ids are summed in uint16; the wide one is read by
    # _int, found bad, and never given the wide ids' value 10**18
    rows = ["0 1"] * 1500 + [f"0 {bad}"]
    with pytest.raises(ParseError) as info:
        parse_graph("5 9\n" + "\n".join(rows) + "\n")
    assert str(info.value) == f"line 1502: expected integer value, got '{bad}'"


def _token_route(text):
    """The graph or fault of ``text`` as the token scan alone reads it."""
    from strictchordal.tokens import _tokenized
    return graph_module._parse(text, _tokenized)


def _outcome(parse, text):
    try:
        g = parse(text)
    except ParseError as exc:
        return str(exc)
    return [a.tolist() for a in g.csr()], g.id_base, g.duplicate_edge_count


@st.composite
def _canonical_lines(draw):
    """``(lines, eol)`` of a text in the layout ``serialize_graph`` writes,
    with 0-3 comment lines before a DIMACS header, or plain.  Ids may repeat,
    fall out of range, make self-loops, carry leading zeros or run past 18
    digits."""
    dimacs, n = draw(st.booleans()), draw(st.integers(0, 9))
    value = st.integers(-1, n + 1).map(lambda v: max(v + dimacs, 0))
    token = st.one_of(value.map(str), value.map(str), st.tuples(value, st.integers(2, 25)).map(
        lambda vw: str(vw[0]).zfill(vw[1])), st.integers(10**18, 10**21).map(str))
    edges = draw(st.lists(st.tuples(token, token), max_size=8))
    m = draw(st.sampled_from([len(edges), 0, 99]))
    if dimacs:
        comments = draw(st.lists(st.text("cx é\t0", max_size=6).map("c ".__add__), max_size=3))
        lines = comments + [f"p edge {n} {m}"] + [f"e {u} {v}" for u, v in edges]
    else:
        lines = [f"{n} {m}"] + [f"{u} {v}" for u, v in edges]
    return lines, draw(st.sampled_from(["\n", "\r\n"]))


_EDITS = ["cr", "eol", "tab", "double", "lead", "blank", "comment", "no_final", "sign", "char",
          "E", "missing", "extra"]


def _edited(draw, lines, eol):
    """The text of ``lines`` with one edit that takes it out of the layout, or
    keeps it in but changes what it says."""
    lines, edit = list(lines), draw(st.sampled_from(_EDITS))
    i = draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    spaces = [k for k, c in enumerate(line) if c == " "]
    at = draw(st.sampled_from(spaces)) if spaces else len(line)
    if edit == "cr":
        lines[i] += "\r"
    elif edit in ("tab", "double"):
        lines[i] = line[:at] + ("\t" if edit == "tab" else "  ") + line[at + 1:]
    elif edit == "lead":
        lines[i] = " " + line
    elif edit in ("blank", "comment"):
        lines.insert(i + 1, "" if edit == "blank" else "c x")
    elif edit == "sign":
        lines[i] = line[:at + 1] + draw(st.sampled_from("-+")) + line[at + 1:]
    elif edit == "char":
        k = draw(st.integers(0, len(line)))
        lines[i] = line[:k] + draw(st.sampled_from(["é", "\ud800", "\u2003", "\x85"])) + line[k:]
    elif edit == "E":
        lines[i] = "E" + line[1:]
    elif edit == "missing":
        lines[i] = line.rsplit(" ", 1)[0]
    elif edit == "extra":
        lines[i] = line + " 7"
    ends = [eol] * len(lines)
    if edit == "eol":  # one line ended by the other of LF and CRLF
        ends[i] = "\n" if eol == "\r\n" else "\r\n"
    elif edit == "no_final":
        ends[-1] = ""
    return "".join(map(str.__add__, lines, ends))


@settings(max_examples=1500, deadline=None)
@given(_canonical_lines(), st.data())
def test_separator_route_reads_as_the_token_scan_does(case, data):
    lines, eol = case
    text = eol.join(lines) + eol
    # the canonical text takes the separator route, to its graph or fault
    with contextlib.suppress(ParseError):
        assert graph_module._parse(text, graph_module._separated) is not None
    for one in (text, _edited(data.draw, lines, eol)):
        assert _outcome(parse_graph, one) == _outcome(_token_route, one), repr(one)


# Line breaks out of place that take two edits: a bare LF where a CRLF text
# has a token gap (read as one id holding the LF), and comment lines whose CRs
# and LFs are as many but do not pair up.
@pytest.mark.parametrize("text", ["2 1\r\n0\n1 0\r\n",
                                  "c a\r\nc x\ry\np edge 2 1\r\ne 1 2\r\n"])
def test_separator_route_leaves_line_breaks_out_of_place_to_the_token_scan(text):
    assert graph_module._parse(text, graph_module._separated) is None
    assert _outcome(parse_graph, text) == _outcome(_token_route, text)


def test_duplicate_edges_collapsed():
    g = parse_graph("p edge 3 4\ne 1 2\ne 2 1\ne 2 3\ne 1 2\n")
    assert g.m == 2
    assert g.duplicate_edge_count == 2


def _reference_csr(n, edges):
    """int64 CSR of the simple graph on ``edges``, built row by row in Python."""
    rows = [set() for _ in range(n)]
    for u, v in edges:
        rows[u].add(v)
        rows[v].add(u)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    return indptr, np.array([w for row in rows for w in sorted(row)], dtype=np.int64)


@pytest.mark.parametrize("n", [2**16, 2**16 + 1])
@pytest.mark.parametrize("shape", ["two_edges", "cycle", "gaps"])
def test_csr_is_the_same_on_both_sides_of_the_key_width_switch(n, shape):
    # keys tail * n + head fit in uint32 up to n = 65,536; the two edges
    # stay below the key count that switches widths, the cycle (with every
    # edge listed twice, both ways) goes past it, and so does a path over
    # the odd vertices up to 3,001, whose rows between and around it are
    # empty
    edges = [(0, n - 1), (0, 1)]
    if shape == "cycle":
        edges = [(v, (v + 1) % n) for v in range(n)]
        edges += [(v, u) for u, v in edges]
    elif shape == "gaps":
        edges = [(v, v + 2) for v in range(1, 3000, 2)]
    g = Graph(n, edges)
    indptr, indices = g.csr()
    ref_indptr, ref_indices = _reference_csr(n, edges)
    assert indptr.dtype == indices.dtype == np.int64
    assert np.array_equal(indptr, ref_indptr) and np.array_equal(indices, ref_indices)
    assert (g.m, g.duplicate_edge_count) == (len(ref_indices) // 2, len(edges) - len(ref_indices) // 2)


def test_serialize_canonical():
    g = parse_graph("p edge 3 2\ne 2 3\ne 2 1\n")
    assert serialize_graph(g) == P3_TEXT


def test_parse_serialize_roundtrip_is_identity_on_canonical_form():
    text = serialize_graph(load_fixture("fig1.gr"))
    assert serialize_graph(parse_graph(text)) == text


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))))
def test_roundtrip_random_graphs(case):
    n, pairs = case
    edges = [(u, v) for u, v in pairs if u != v]
    g = Graph(n, edges)
    h = parse_graph(serialize_graph(g))
    assert (h.n, h.m, neighbours(h)) == (g.n, g.m, neighbours(g))


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])


def test_components_path_middle_removed():
    count, labels = connected_components(path_graph(3), {1})
    assert count == 2
    assert labels == [0, -1, 1]


def test_components_fig2_scattering_set():
    g = load_fixture("fig2_g2.gr")
    # removing {l, m, n, o} (internal ids 1..4) leaves 9 pieces
    count, _ = connected_components(g, {1, 2, 3, 4})
    assert count == 9


def test_components_clique_never_disconnects():
    count, _ = connected_components(complete_graph(4), {0, 2})
    assert count == 1


def test_components_full_removal_and_empty_removed():
    g = path_graph(3)
    assert connected_components(g, {0, 1, 2})[0] == 0
    assert connected_components(g)[0] == 1


def test_component_ids_follow_smallest_vertex():
    g = Graph(6, [(0, 5), (1, 2), (3, 4)])
    count, labels = connected_components(g, {5})
    assert count == 3
    # components discovered in order of their smallest vertex: {0}, {1,2}, {3,4}
    assert labels == [0, 1, 1, 2, 2, -1]


def test_components_reject_removed_ids_out_of_range():
    g = Graph(3, [(0, 1), (1, 2)])
    for v in (-2, -1, 3):
        with pytest.raises(ValueError, match=f"out of range 0..2: {v}$"):
            connected_components(g, [v])
    assert connected_components(g, [1]) == (2, [0, -1, 1])


def test_is_connected():
    assert connected_components(path_graph(3))[0] == 1
    assert connected_components(Graph(4, [(0, 1), (2, 3)]))[0] == 2
    assert connected_components(load_fixture("fig2_g1.gr"))[0] == 1
    assert connected_components(Graph(0))[0] == 0
    assert connected_components(Graph(1))[0] == 1


def test_components_match_union_find_on_random_pairs():
    rng = random.Random(20240811)
    for _ in range(1000):
        n = rng.randint(1, 24)
        g = random_graph(rng, n, rng.random())
        removed = {v for v in range(n) if rng.random() < 0.3}
        count, labels = connected_components(g, removed)
        ref_count, ref_partition = uf_components(g, removed)
        assert count == ref_count
        groups = {}
        for v in range(n):
            if labels[v] >= 0:
                groups.setdefault(labels[v], set()).add(v)
        assert {frozenset(s) for s in groups.values()} == ref_partition
