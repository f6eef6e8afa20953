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

The circles of every state come once from diagram.state_circles, kept
as two byte strings: the plug -> circle labels and the smallest plug of
each circle; free loops take the last d.loops labels.  The edge that
flips crossing c touches exactly the circles labelled at plugs
4c..4c+3 of each end state: one on the source side and two on the
target side is a split, the other way round a merge.  Every other
circle is the same plug set at both ends, so it maps through its
smallest plug.

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

from qalinks.diagram import LinkDiagram, crossing_signs, state_circles
from qalinks.invariants import SizeLimitError

CROSSING_CAP = 12
DIM_CAP = 1 << 22


def _n_minus(d: LinkDiagram) -> int:
    """Negative crossings, after the crossing cap check."""
    if d.n > CROSSING_CAP:
        raise SizeLimitError("%d crossings exceed the cap %d"
                             % (d.n, CROSSING_CAP))
    return crossing_signs(d).count(-1)


def _levels(d: LinkDiagram, n_minus: int):
    """Yield (r, dims, rows) for r = 0..n, the marked subcomplex at state
    weight r: dims maps j to the column count of block (r, j), and
    rows[j] holds its differential rows, bitmasks over the columns of
    block (r + 1, j).  A labeling x has bit 0 set, and its column is
    numbered by x >> 1.  Only levels r and r + 1 are numbered at once."""
    n = d.n
    shift = n - 3 * n_minus  # n_plus - 2 n_minus
    # per state: plug -> circle index, each circle's smallest plug, and
    # the circle count with the free loops as the last d.loops indices
    lab, first, ks = [], [], []
    for mask in range(1 << n):
        circles = state_circles(d, mask)
        here = bytearray(4 * n)
        for i, circle in enumerate(circles):
            for p in circle:
                here[p] = i
        lab.append(bytes(here))
        first.append(bytes(circle[0] for circle in circles))
        ks.append(len(circles) + d.loops)
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

    dims, col = number(0)
    for r in range(n + 1):
        dims_up, col_up = number(r + 1)
        rows = {j: [0] * dim for j, dim in dims.items()}
        for mask in weight[r]:
            k = ks[mask]
            ls = lab[mask]
            img = [0] * len(col[mask])
            for c in range(n):
                if mask >> c & 1:
                    continue
                t_mask = mask | 1 << c
                lt, ct, kt = lab[t_mask], col_up[t_mask], ks[t_mask]
                plugs = range(4 * c, 4 * c + 4)
                src = sorted({ls[p] for p in plugs})
                dst = sorted({lt[p] for p in plugs})
                # image of every circle the edge leaves alone, by its
                # smallest plug; touched circles transfer nothing
                tbl = [0 if b in src else 1 << lt[p]
                       for b, p in enumerate(first[mask])]
                tbl += [1 << i for i in range(kt - d.loops, kt)]
                # walk the labelings with the marked circle 0 at x in
                # Gray order over circles 1..k-1, one transferred bit
                # per step
                x, t = 1, tbl[0]
                if len(src) == 2:  # merge of circles a and b into m
                    ab, m = 1 << src[0] | 1 << src[1], 1 << dst[0]
                    for g in range(1 << k - 1):
                        if g:
                            flip = (g & -g).bit_length()
                            x ^= 1 << flip
                            t ^= tbl[flip]
                        if x & ab != ab:
                            img[x >> 1] ^= 1 << ct[
                                (t | m if x & ab else t) >> 1]
                else:  # split of circle a into u and v
                    a, u, v = 1 << src[0], 1 << dst[0], 1 << dst[1]
                    for g in range(1 << k - 1):
                        if g:
                            flip = (g & -g).bit_length()
                            x ^= 1 << flip
                            t ^= tbl[flip]
                        if x & a:
                            img[x >> 1] ^= 1 << ct[(t | u | v) >> 1]
                        else:
                            img[x >> 1] ^= (1 << ct[(t | u) >> 1]
                                            ^ 1 << ct[(t | v) >> 1])
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
        rank_d = {j: _rank(rws) for j, rws in rows.items()}
        for j, dim in dims.items():
            h = dim - rank_d[j] - below.get(j, 0)
            for key in (r - n_minus, j), (r - n_minus, j + 2):
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


@dataclass(frozen=True)
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
