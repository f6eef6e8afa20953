"""Khovanov homology over F2 from the marked-circle subcomplex.

The zero smoothing of every crossing is the A smoothing (plugs (0,1)
and (2,3) joined), the one smoothing is B, matching the bracket
conventions in the invariants module.  A state with r one-smoothings
sits in homological degree i = r - n_minus; a labeling of its circles
with deg = (#unit - #x) sits in quantum degree j = deg + r + n_plus
- 2*n_minus.  Crossing signs come from the same traversal orientation
the writhe uses, so the graded Euler characteristic lands exactly on
(q + 1/q) times the Jones polynomial as stored next door.

Only the generators whose marked circle is labelled x are built.  The
marked circle is circle 0 of every state: the circle through plug 0
when there are crossings (state_circles orders circles by their
smallest plug), else the first free loop.  These generators span a
subcomplex, because no edge takes the x off the marked circle: a merge
sends x⊗1 to x and x⊗x to 0, a split sends x to x⊗x, and the circle
the edge makes from the marked one is again the marked circle.
Over F2 unreduced Khovanov homology is this reduced homology tensored
with F2[x]/x^2 (A. Shumakovitch, Torsion of the Khovanov homology,
arXiv:math/0405474, Cor. 3.2.C): the quotient, with the marked circle
at 1, is the same complex two quantum degrees up.  So each reduced
rank at (i, j) is counted at j and again at j + 2.  The empty diagram
has no circle to mark; its table {(0, 0): 1} is returned as is.

Each state's circles are kept as a byte string of plug -> circle
labels; free loops take the last d.loops labels.  The A smoothing joins
plugs (0,1) and (2,3), so flipping crossing c from A to B touches the
circles a and b at plugs 4c and 4c + 2, and since state_circles numbers
circles by their smallest plugs, the indices alone say what the flip
does.  A merge (a < b) gives the merged circle index a and moves every
circle above b down one.  A split (a = b) leaves index a to the part
through a's smallest plug and inserts the other part at index w, one
past the circles whose smallest plugs come before its own, moving every
circle from w up one.  Only state 0 is walked whole, by
diagram.circle_labels.  Every other state is labelled from a parent,
the state with one of its B smoothings back at A, by this rule: a merge
is one byte translate, a split one walk of the new circle through plug
4c by diagram.state_circle, the diagram module's one state-circle walk,
so a parent that merges is preferred.  The same rule maps each edge: a
labeling's image is a few shifts and masks of its bits, fixed by the
source state's circle count and the touched indices alone, so the
images of each such key are tabulated once per call and read by every
edge with that key.

The complex is built one level at a time.  The differential preserves
j and raises the state weight r by one, so the states are grouped by
r, and level r needs the column numbers of levels r and r + 1 only.
Its rows, python-int bitmasks over the columns of level r + 1, are
ranked block by block (each (r, j) block eliminates on its own), or
composed with the level before them by d_squared_zero, and dropped
before the next level is built: about two levels are held at once,
not the whole complex.

The size caps are the module constants CROSSING_CAP and DIM_CAP, read
at call time; a diagram over either raises SizeLimitError before any
level is built.  DIM_CAP bounds the unreduced dimension, the sum of 2^k
over the states with k circles, which is twice what is built: the caps
refuse a diagram by the size of its homology's full cube, whichever
complex computes it.
"""

from __future__ import annotations

from dataclasses import dataclass

from qalinks.diagram import (
    LinkDiagram, circle_labels, crossing_signs, state_circle,
)
from qalinks.invariants import SizeLimitError

CROSSING_CAP = 12
DIM_CAP = 1 << 22


def _n_minus(d: LinkDiagram) -> int:
    """Negative crossings, after the crossing cap check."""
    if d.n > CROSSING_CAP:
        raise SizeLimitError("%d crossings exceed the cap %d"
                             % (d.n, CROSSING_CAP))
    return crossing_signs(d).count(-1)


def _labels(d: LinkDiagram):
    """Per state mask: the plug -> circle label bytes, and the circle
    count with the free loops.  State 0 is labelled by
    diagram.circle_labels, every other state derived from a parent by
    the index rule; for a split, diagram.state_circle walks the new
    circle, the part without a's smallest plug, which moves to w."""
    n, first = d.n, circle_labels(d, 0)
    lab, ks = [bytes(first)], [max(first, default=-1) + 1 + d.loops]
    ident, tables = bytes(range(256)), {}
    for mask in range(1, 1 << n):
        low, rest = mask & -mask, mask
        while rest:  # the lowest bit whose parent merges, else the lowest
            bit = rest & -rest
            pl = lab[mask ^ bit]
            c = bit.bit_length() - 1
            if pl[4 * c] != pl[4 * c + 2]:
                low = bit
                break
            rest ^= bit
        c = low.bit_length() - 1
        ls = lab[mask ^ low]
        a, b = ls[4 * c], ls[4 * c + 2]
        k = ks[mask ^ low]
        if a != b:  # merge
            if a > b:
                a, b = b, a
            t = tables.get((a, b))
            if t is None:
                t = tables[a, b] = ident[:b] + bytes((a,)) + ident[b:255]
            lab.append(ls.translate(t))
            ks.append(k - 1)
            continue
        s = ls.index(a)
        for p0 in 4 * c, 4 * c + 1:  # split: the new circle through p0
            part = state_circle(d, mask, p0)
            if s not in part:
                break
        w = max(ls[:min(part)]) + 1
        t = tables.get(w)
        if t is None:
            t = tables[w] = ident[:w] + ident[w + 1:] + ident[255:]
        here = bytearray(ls.translate(t))
        for p in part:
            here[p] = w
        lab.append(bytes(here))
        ks.append(k + 1)
    return lab, ks


def _merge_images(k, a, b):
    """The merge of circles a < b of a state with k circles, as one
    target per odd labeling x < 2^k in order: the slot y >> 1 of the
    image y in the target state's columns, or -1 where x_a = x_b = 1
    and the image is 0."""
    lo, ab, m = (1 << b) - 1, 1 << a | 1 << b, 1 << a
    return [-1 if x & ab == ab else (x & lo | x >> b + 1 << b
                                     | x >> b - a & m) >> 1
            for x in range(1, 1 << k, 2)]


def _split_images(k, a, w):
    """The split of circle a of a state with k circles, the new circle
    at w > a, as one pair (u, v) of target slots per odd labeling
    x < 2^k in order: the image is the sum of the two, and v = -1 where
    x_a = 1 and the image is the one term u."""
    lo, m, mw = (1 << w) - 1, 1 << a, 1 << w
    return [((y | mw) >> 1, -1 if x & m else (y | m) >> 1)
            for x in range(1, 1 << k, 2)
            for y in (x & lo | x >> w << w + 1,)]


def _levels(d: LinkDiagram, n_minus: int):
    """Yield (r, dims, rows) for r = 0..n, the marked subcomplex at state
    weight r: dims maps j to the column count of block (r, j), and
    rows[j] holds its differential rows, bitmasks over the columns of
    block (r + 1, j).  A labeling x has bit 0 set, and its column is
    numbered by x >> 1.  Only levels r and r + 1 are numbered at once.

    The labels of every state come from _labels, each from a parent
    state by one merge or split.  The edge at crossing c maps x by its
    circle indices.  A merge of a < b sends x to
    y = (x & (2^b - 1)) | (x >> (b+1) << b) with bit a set to
    x_a | x_b, or to 0 when both are set.  A split of a, the new circle
    at w, sends x to y = (x & (2^w - 1)) | (x >> w << (w+1)) plus 2^w
    when x_a is set, and to (y | 2^a) + (y | 2^w) when it is not.
    These images depend on the state only through its circle count k
    and the touched indices, so each key (k, a, b) or (k, a, w) is
    tabulated once per call by _merge_images or _split_images, and an
    edge reads its table and the target state's column numbers."""
    n = d.n
    shift = n - 3 * n_minus  # n_plus - 2 n_minus
    lab, ks = _labels(d)
    total = sum(1 << k for k in ks)
    if total > DIM_CAP:
        raise SizeLimitError("chain dimension %d exceeds the cap %d"
                             % (total, DIM_CAP))
    weight = [[] for _ in range(n + 2)]
    for mask in range(1 << n):
        weight[mask.bit_count()].append(mask)

    def number(r):
        dims, col = {}, {}
        for mask in weight[r]:
            base = r + shift + ks[mask]
            here = col[mask] = []
            for x in range(1, 1 << ks[mask], 2):
                j = base - 2 * x.bit_count()
                idx = dims.get(j, 0)
                dims[j] = idx + 1
                here.append(idx)
        return dims, col

    merges, splits = {}, {}
    dims, col = number(0)
    for r in range(n + 1):
        dims_up, col_up = number(r + 1)
        rows = {j: [0] * dim for j, dim in dims.items()}
        for mask in weight[r]:
            k = ks[mask]
            ls = lab[mask]
            img = [0] * (1 << k - 1)
            for c in range(n):
                if mask >> c & 1:
                    continue
                ct = col_up[mask | 1 << c]
                a, b = ls[4 * c], ls[4 * c + 2]
                if a != b:  # merge
                    key = (k, a, b) if a < b else (k, b, a)
                    t = merges.get(key)
                    if t is None:
                        t = merges[key] = _merge_images(*key)
                    img = [i if u < 0 else i ^ 1 << ct[u]
                           for i, u in zip(img, t)]
                else:  # split
                    lt = lab[mask | 1 << c]
                    # the part without a's smallest plug comes after a
                    key = (k, a, max(lt[4 * c], lt[4 * c + 1]))
                    t = splits.get(key)
                    if t is None:
                        t = splits[key] = _split_images(*key)
                    img = [i ^ 1 << ct[u] ^ (0 if v < 0 else 1 << ct[v])
                           for i, (u, v) in zip(img, t)]
            base = r + shift + k - 2
            for h, idx in enumerate(col[mask]):
                rows[base - 2 * h.bit_count()][idx] = img[h]
        yield r, dims, rows
        dims, col = dims_up, col_up


def _rank(rows) -> int:
    pivots = {}
    rank = 0
    for row in rows:
        while row:
            b = row.bit_length() - 1
            if b in pivots:
                row ^= pivots[b]
            else:
                pivots[b] = row
                rank += 1
                break
    return rank


def khovanov_f2(d: LinkDiagram) -> dict:
    """Ranks of F2 Khovanov homology as a map (i, j) -> dimension."""
    if not d.n and not d.loops:  # the empty link: no circle to mark
        return {(0, 0): 1}
    n_minus = _n_minus(d)
    ranks, below = {}, {}
    for r, dims, rows in _levels(d, n_minus):
        i = r - n_minus
        # each block is dropped once ranked, before the next level
        rank_d = {j: _rank(rows.pop(j)) for j in dims}
        for j, dim in dims.items():
            h = dim - rank_d[j] - below.get(j, 0)
            for key in (i, j), (i, j + 2):
                ranks[key] = ranks.get(key, 0) + h
        below = rank_d
    return {key: h for key, h in sorted(ranks.items()) if h}


def d_squared_zero(d: LinkDiagram) -> bool:
    """Check d∘d = 0, block by block, on the complex khovanov_f2
    builds: the marked-circle subcomplex, not the full cube."""
    below = {}
    for _, _, rows in _levels(d, _n_minus(d)):
        for j, rws in below.items():
            nxt = rows.get(j)
            if nxt is None:
                continue
            for row in rws:
                acc = 0
                while row:
                    b = row & -row
                    acc ^= nxt[b.bit_length() - 1]
                    row ^= b
                if acc:
                    return False
        below = rows
    return True


@dataclass(frozen=True, slots=True)
class ThinnessReport:
    diagonals: tuple
    width: int
    sigma_thin: bool

    @property
    def thin(self):
        return self.width == 2


def thinness(ranks: dict, sigma: int) -> ThinnessReport:
    """Diagonal support report: width and the sigma-thinness test.

    Diagonals are delta = j - 2i; width counts occupied diagonals on
    the step-2 lattice, so a homology confined to two adjacent ones
    (the unknot sits on delta in {-1, 1}) has width 2.  sigma_thin
    holds when every diagonal lies in {-sigma-1, -sigma+1}.
    """
    if not ranks:
        raise ValueError("empty rank map")
    deltas = sorted({j - 2 * i for i, j in ranks})
    width = (deltas[-1] - deltas[0]) // 2 + 1
    sigma_thin = set(deltas) <= {-sigma - 1, -sigma + 1}
    return ThinnessReport(tuple(deltas), width, sigma_thin)
