"""Seeded benchmark inputs and the answers the program must give on them.

Every in-class input is a block graph (cliques glued at cut vertices, in a
tree) with true twins added, so the expected report follows from the
construction alone:

- the minimal vertex separators are the twin classes of the cut vertices,
  with |S| = 1 + twins(c) and mu(S) = (blocks at c) - 1;
- the maximal cliques are the blocks, each widened by its vertices' twins,
  and a block is a boundary clique iff it holds exactly one cut vertex;
- the case, the toughness and (outside type B) the scattering number follow
  from that table in closed form;
- the type-B scattering number is the best union of separators, found by a
  dynamic program over the block/cut-vertex tree (``_scattering_dp``), which
  shares no method with the program's post-order search.

Out-of-class inputs plant one known defect: a disconnected union, a
chordless cycle, or a gadget whose separators {a, b} and {a} overlap.

Nothing here imports ``strictchordal``: the inputs stay the same when the
program's own generator changes, and the same seed always gives the same
inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from statistics import NormalDist

import numpy as np

COMPLETE = "complete"
SINGLE_MVS = "single_mvs"
TOUGH_GE_1 = "tough_ge_1"
TYPE_A = "type_a"
TYPE_B = "type_b"

IN_CLASS = "ok"
DISCONNECTED = "disconnected"
CHORDLESS = "chordless"
OVERLAP = "overlap"


@dataclass
class Expected:
    """Reference answer for one input, in the program's 0-based ids
    (file id minus ``id_base``)."""

    kind: str
    case: str | None = None
    clique_count: int = 0
    # (sorted vertices, mu, boundary cliques), sorted by smallest vertex
    separators: tuple = ()
    toughness: Fraction | None = None
    scattering_number: int | None = None
    clique_entries: int = 0  # sum of |Q| over the maximal cliques


@dataclass
class Input:
    """One graph file as text, its edges (0-based, for the checker's own
    component counts) and the expected answer."""

    name: str
    text: str
    n: int
    m: int
    id_base: int
    eu: np.ndarray
    ev: np.ndarray
    expected: Expected


# ---------------------------------------------------------------- block trees

def _grow_blocks(rng, n_base, size_lo, size_hi, attach):
    """Blocks of a connected block graph with about ``n_base`` vertices.

    ``attach(rng, blocks, n)`` picks the existing vertex each new block is
    glued at; the first block is ``0..size-1``.
    """
    size = rng.randint(size_lo, size_hi)
    blocks = [list(range(size))]
    n = size
    while n < n_base:
        at = attach(rng, blocks, n)
        size = rng.randint(size_lo, size_hi)
        blocks.append([at] + list(range(n, n + size - 1)))
        n += size - 1
    return blocks, n


def _attach_uniform(rng, blocks, n):
    return rng.randrange(n)


def _attach_chain(rng, blocks, n):
    return rng.choice(blocks[-1])


def _block_counts(blocks, n_base):
    count = [0] * n_base
    for block in blocks:
        for v in block:
            count[v] += 1
    return count


# ------------------------------------------------------------- twin inflation

def _inflate(blocks, n_base, twins):
    """Add ``twins[v]`` true twins to each base vertex v.

    Returns (n, classes, eu, ev): ``classes[v]`` lists v and its twins.  Two
    base vertices share at most one block, so every edge is emitted once:
    pairs within a twin class once, pairs across classes once per block.
    """
    classes = []
    n = n_base
    for v in range(n_base):
        classes.append([v] + list(range(n, n + twins[v])))
        n += twins[v]
    us, vs = [], []
    for members in classes:
        if len(members) > 1:
            arr = np.asarray(members, dtype=np.int64)
            i, j = np.triu_indices(len(arr), 1)
            us.append(arr[i])
            vs.append(arr[j])
    for block in blocks:
        flat = [w for v in block for w in classes[v]]
        owner = [v for v in block for _ in classes[v]]
        arr = np.asarray(flat, dtype=np.int64)
        own = np.asarray(owner, dtype=np.int64)
        i, j = np.triu_indices(len(arr), 1)
        cross = own[i] != own[j]
        us.append(arr[i[cross]])
        vs.append(arr[j[cross]])
    eu = np.concatenate(us) if us else np.empty(0, dtype=np.int64)
    ev = np.concatenate(vs) if vs else np.empty(0, dtype=np.int64)
    return n, classes, eu, ev


# ------------------------------------------------------------ reference table

def _scattering_dp(blocks, count, weight):
    """max over sets X of cut vertices of (components of G - S) - |S|, where
    S is the union of the twin classes of X (``weight[c]`` = class size).

    Dynamic program over the block/cut-vertex tree rooted at block 0.  A
    kept cut vertex joins its blocks' component; a removed one closes the
    components of its child blocks.  keep[c]/drop[c] are the best values of
    c's subtree, not counting the component that contains c's parent block;
    join[b]/close[b] are a block's subtree value when its parent cut vertex
    is kept (block joins the parent's component) or removed (block's own
    component counts here, if it keeps a vertex).
    """
    blocks_at = {}
    for b, block in enumerate(blocks):
        for v in block:
            if count[v] > 1:
                blocks_at.setdefault(v, []).append(b)
    # preorder of (is_block, id, parent); reversed, children precede parents
    order = []
    stack = [(True, 0, -1)]
    while stack:
        node = stack.pop()
        order.append(node)
        is_block, x, parent = node
        if is_block:
            stack.extend((False, c, x) for c in blocks[x] if count[c] > 1 and c != parent)
        else:
            stack.extend((True, b, x) for b in blocks_at[x] if b != parent)
    keep, drop, join, close = {}, {}, {}, {}
    for is_block, x, parent in reversed(order):
        if is_block:
            kids = [c for c in blocks[x] if count[c] > 1 and c != parent]
            base = sum(drop[c] for c in kids)
            gains = [keep[c] - drop[c] for c in kids]
            best = base + sum(g for g in gains if g > 0)
            join[x] = best
            if any(count[v] == 1 for v in blocks[x]):
                close[x] = best + 1
            elif any(g >= 0 for g in gains):
                close[x] = max(base, best + 1)
            else:
                close[x] = max(base, base + 1 + max(gains))
        else:
            kids = [b for b in blocks_at[x] if b != parent]
            keep[x] = sum(join[b] for b in kids)
            drop[x] = sum(close[b] for b in kids) - weight[x]
    return close[0]


def _expected_in_class(blocks, n_base, classes):
    """Reference answer of the inflated block graph, before relabelling."""
    count = _block_counts(blocks, n_base)
    cuts = [v for v in range(n_base) if count[v] > 1]
    single_cut = [sum(1 for v in block if count[v] > 1) == 1 for block in blocks]
    boundary = dict.fromkeys(cuts, 0)
    for b, block in enumerate(blocks):
        if single_cut[b]:
            for v in block:
                if count[v] > 1:
                    boundary[v] += 1
    table = [(classes[c], count[c] - 1, boundary[c]) for c in cuts]
    entries = sum(len(classes[v]) for block in blocks for v in block)
    if not table:
        return Expected(IN_CLASS, COMPLETE, len(blocks), clique_entries=entries)
    tau = min(Fraction(len(s), mu + 1) for s, mu, _ in table)
    if len(table) == 1:
        case = SINGLE_MVS
        s, mu, _ = table[0]
        sc = mu + 1 - len(s)
    elif all(len(s) >= mu + 1 for s, mu, _ in table):
        case = TOUGH_GE_1
        sc = max(mu + 1 - len(s) for s, mu, _ in table)
    elif all(len(s) >= mu for s, mu, _ in table):
        case = TYPE_A
        sc = 1
    else:
        case = TYPE_B
        sc = _scattering_dp(blocks, count, {c: len(classes[c]) for c in cuts})
    return Expected(IN_CLASS, case, len(blocks), tuple(table), tau, sc, entries)


# ------------------------------------------------------------ files and input

def _relabel(expected, perm):
    seps = sorted((tuple(sorted(int(perm[v]) for v in s)), mu, boundary)
                  for s, mu, boundary in expected.separators)
    return replace(expected, separators=tuple(seps))


def _make_input(name, rng, n, eu, ev, expected, plain):
    """Shuffle ids, edge order and edge orientation; write the file text."""
    nprng = np.random.default_rng(rng.getrandbits(64))
    perm = nprng.permutation(n)
    u = perm[eu]
    v = perm[ev]
    flip = nprng.random(len(u)) < 0.5
    u, v = np.where(flip, v, u), np.where(flip, u, v)
    order = nprng.permutation(len(u))
    u = u[order]
    v = v[order]
    m = len(u)
    if plain:
        lines = [f"{n} {m}"]
        lines += map("{} {}".format, u.tolist(), v.tolist())
        id_base = 0
    else:
        lines = [f"c {name}", f"p edge {n} {m}"]
        lines += map("e {} {}".format, (u + 1).tolist(), (v + 1).tolist())
        id_base = 1
    lines.append("")
    return Input(name, "\n".join(lines), n, m, id_base, u, v, _relabel(expected, perm))


def _in_class(name, rng, blocks, n_base, twins, plain=False):
    n, classes, eu, ev = _inflate(blocks, n_base, twins)
    return _make_input(name, rng, n, eu, ev, _expected_in_class(blocks, n_base, classes), plain)


# ------------------------------------------------------------------ workloads

def typeb_large(seed):
    """One random block graph (n about 1e4, m about 3.8e4): blocks of 2-6
    vertices glued at uniformly chosen vertices, each vertex with 0-1 true
    twins (about 1.5 vertices per base vertex).  Many cut vertices lie in
    three or more blocks without a twin (|S| < mu(S)), so the case is type B."""
    rng = random.Random(f"typeb_large/{seed}")
    blocks, n_base = _grow_blocks(rng, round(10_000 / 1.5), 2, 6, _attach_uniform)
    twins = [rng.randint(0, 1) for _ in range(n_base)]
    return [_in_class(f"typeb_large/{seed}", rng, blocks, n_base, twins)]


def dense_chain(seed):
    """One chain of large cliques (26-34 vertices; n about 4e3, m about
    7e4), each glued at a vertex of the block before it.  A cut vertex in k
    blocks gets k-1 or k twins, so every separator has |S| >= mu(S) + 1 and
    the case is tough_ge_1."""
    rng = random.Random(f"dense_chain/{seed}")
    # each cut vertex carries about 1.5 twins and each block about one
    blocks, n_base = _grow_blocks(rng, round(4_000 * 30 / 31.5), 26, 34, _attach_chain)
    count = _block_counts(blocks, n_base)
    twins = [count[v] - 1 + rng.randint(0, 1) if count[v] > 1 else 0 for v in range(n_base)]
    return [_in_class(f"dense_chain/{seed}", rng, blocks, n_base, twins)]


# Shares of the small corpus, in percent: five in-class cases and three
# planted defects.  Every seed gets exactly these shares and the same spread
# of sizes, so seeds change the graphs but not how much work a pass holds.
_CORPUS_MIX = ((COMPLETE, 5), (SINGLE_MVS, 13), (TOUGH_GE_1, 22), (TYPE_A, 18), (TYPE_B, 32),
               (DISCONNECTED, 3), (CHORDLESS, 4), (OVERLAP, 3))
_PLAIN_SHARE = 0.2


def _small_blocks(rng, case, n_base):
    """Base blocks and twins of one small graph aimed at ``case``; the
    reference recomputes the case from the table it produces."""
    if case == COMPLETE:
        size = rng.randint(2, 12)
        return [list(range(size))], size, [rng.randint(0, 2) for _ in range(size)]
    if case == SINGLE_MVS:
        blocks = []
        n = 1
        for _ in range(rng.randint(2, 8)):
            size = rng.randint(2, 8)
            blocks.append([0] + list(range(n, n + size - 1)))
            n += size - 1
        return blocks, n, [rng.randint(0, 3) for _ in range(n)]
    blocks, n = _grow_blocks(rng, n_base, 2, 6, _attach_uniform)
    count = _block_counts(blocks, n)
    cuts = [v for v in range(n) if count[v] > 1]
    if case == TOUGH_GE_1:
        twins = [count[v] - 1 + rng.randint(0, 1) if count[v] > 1 else rng.randint(0, 1)
                 for v in range(n)]
    elif case == TYPE_A:
        twins = [max(0, count[v] - 2 + rng.randint(0, 1)) if count[v] > 1 else rng.randint(0, 1)
                 for v in range(n)]
        if cuts:
            c = rng.choice(cuts)
            twins[c] = count[c] - 2
    else:
        hub = max(range(n), key=lambda v: (count[v], -v))
        while count[hub] < 3:
            size = rng.randint(2, 6)
            blocks.append([hub] + list(range(n, n + size - 1)))
            n += size - 1
            count[hub] += 1
        twins = [rng.randint(0, 1) for _ in range(n)]
        twins[hub] = 0
    return blocks, n, twins


def _small_rejection(name, rng, kind, n_base, plain):
    blocks, n_base, twins = _small_blocks(rng, rng.choice([TOUGH_GE_1, TYPE_A, TYPE_B]), n_base)
    n, _, eu, ev = _inflate(blocks, n_base, twins)
    extra_u, extra_v = [], []
    if kind == DISCONNECTED:
        blocks2, n_base2, twins2 = _small_blocks(rng, SINGLE_MVS, 0)
        n2, _, eu2, ev2 = _inflate(blocks2, n_base2, twins2)
        extra_u, extra_v = (eu2 + n).tolist(), (ev2 + n).tolist()
        n += n2
    elif kind == CHORDLESS:
        # path a - x1 - ... - xk - b beside the edge a-b: a chordless cycle
        e = rng.randrange(len(eu))
        a, b = int(eu[e]), int(ev[e])
        k = rng.randint(2, 4)
        path = [a] + list(range(n, n + k)) + [b]
        extra_u, extra_v = path[:-1], path[1:]
        n += k
    else:
        # cliques {u,x,y}, {x,y,z}, {x,w}: separators {x,y} and {x} overlap
        u = rng.randrange(n)
        x, y, z, w = range(n, n + 4)
        extra_u = [u, u, x, x, y, x]
        extra_v = [x, y, y, z, z, w]
        n += 4
    eu = np.concatenate((eu, np.asarray(extra_u, dtype=np.int64)))
    ev = np.concatenate((ev, np.asarray(extra_v, dtype=np.int64)))
    return _make_input(name, rng, n, eu, ev, Expected(kind), plain)


def small_corpus(seed, count=1500):
    """Many small graphs: every case of the dispatch, one file in five in
    the plain 0-based format, and one in ten outside the class (disconnected,
    a planted chordless cycle, or two overlapping separators).  Tree sizes
    are stratified draws from a log-normal with median 50 base vertices
    (about 80 after twins), capped at 400."""
    rng = random.Random(f"small_corpus/{seed}")
    kinds = [kind for kind, share in _CORPUS_MIX for _ in range(count * share // 100)]
    kinds += [TYPE_B] * (count - len(kinds))
    rng.shuffle(kinds)
    normal = NormalDist(math.log(50), 0.6)
    sizes = [max(4, min(400, round(math.exp(normal.inv_cdf((k + rng.random()) / count)))))
             for k in range(count)]
    rng.shuffle(sizes)
    plain = [k < count * _PLAIN_SHARE for k in range(count)]
    rng.shuffle(plain)
    inputs = []
    for i, kind in enumerate(kinds):
        name = f"small_corpus/{seed}/{i}"
        if kind in (DISCONNECTED, CHORDLESS, OVERLAP):
            inputs.append(_small_rejection(name, rng, kind, sizes[i], plain[i]))
        else:
            blocks, n_base, twins = _small_blocks(rng, kind, sizes[i])
            inputs.append(_in_class(name, rng, blocks, n_base, twins, plain[i]))
    return inputs


WORKLOADS = {
    "typeb_large": typeb_large,
    "dense_chain": dense_chain,
    "small_corpus": small_corpus,
}


def warmup_input():
    """Small fixed in-class input, the same for every seed and workload."""
    rng = random.Random("warmup")
    blocks, n_base, twins = _small_blocks(rng, TYPE_B, 30)
    return _in_class("warmup", rng, blocks, n_base, twins)
