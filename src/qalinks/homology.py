"""Khovanov homology over F2 from the cube of resolutions.

The zero smoothing of every crossing is the A smoothing (plugs (0,1)
and (2,3) joined), the one smoothing is B, matching the bracket
conventions in the invariants module.  A state with r one-smoothings
sits in homological degree i = r - n_minus; a labeling of its circles
with deg = (#unit - #x) sits in quantum degree j = deg + r + n_plus
- 2*n_minus.  Crossing signs come from the same traversal orientation
the writhe uses, so the graded Euler characteristic lands exactly on
(q + 1/q) times the Jones polynomial as stored next door.

The circles of every state come once from diagram.state_circles, kept
as a plug -> circle label list and the smallest plug of each circle;
free loops take the last d.loops labels.  The edge that flips crossing
c touches exactly the circles labelled at plugs 4c..4c+3 of each end
state: one on the source side and two on the target side is a split,
the other way round a merge.  Every other circle is the same plug set
at both ends, so it maps through its smallest plug.

Ranks are computed blockwise: the differential preserves j and raises
the state weight r by one, so each (r, j) block eliminates on its own,
with rows kept as python-int bitmasks.

The size caps are the module constants CROSSING_CAP and DIM_CAP, read
at call time; a diagram over either raises SizeLimitError.
"""

from __future__ import annotations

from dataclasses import dataclass

from qalinks.diagram import LinkDiagram, crossing_signs, state_circles
from qalinks.invariants import SizeLimitError

CROSSING_CAP = 12
DIM_CAP = 1 << 22


def _assemble(d: LinkDiagram):
    """Column numbering and aligned differential rows per (r, j) block."""
    if d.n > CROSSING_CAP:
        raise SizeLimitError("%d crossings exceed the cap %d"
                             % (d.n, CROSSING_CAP))
    signs = crossing_signs(d)
    n_plus = sum(1 for s in signs if s > 0)
    n_minus = d.n - n_plus
    # per state: plug -> circle index, each circle's smallest plug, and
    # the circle count with the free loops as the last d.loops indices
    lab, first, ks = [], [], []
    for mask in range(1 << d.n):
        circles = state_circles(d, mask)
        here = [0] * (4 * d.n)
        for i, circle in enumerate(circles):
            for p in circle:
                here[p] = i
        lab.append(here)
        first.append([circle[0] for circle in circles])
        ks.append(len(circles) + d.loops)
    total = sum(1 << k for k in ks)
    if total > DIM_CAP:
        raise SizeLimitError("chain dimension %d exceeds the cap %d"
                             % (total, DIM_CAP))
    dims = {}
    col = []
    for mask, k in enumerate(ks):
        r = mask.bit_count()
        base = r + n_plus - 2 * n_minus + k
        here = []
        for x in range(1 << k):
            key = (r, base - 2 * x.bit_count())
            idx = dims.get(key, 0)
            dims[key] = idx + 1
            here.append(idx)
        col.append(here)
    rows = {key: [0] * dim for key, dim in dims.items()}
    for mask, k in enumerate(ks):
        r = mask.bit_count()
        base = r + n_plus - 2 * n_minus + k
        ls = lab[mask]
        img = [0] * (1 << k)
        for c in range(d.n):
            if mask >> c & 1:
                continue
            t_mask = mask | 1 << c
            lt, ct, kt = lab[t_mask], col[t_mask], ks[t_mask]
            plugs = range(4 * c, 4 * c + 4)
            src = sorted({ls[p] for p in plugs})
            dst = sorted({lt[p] for p in plugs})
            # image of every circle the edge leaves alone, by its smallest
            # plug; touched circles transfer nothing
            tbl = [0 if b in src else 1 << lt[p]
                   for b, p in enumerate(first[mask])]
            tbl += [1 << i for i in range(kt - d.loops, kt)]
            # walk labelings in Gray order, one transferred bit per step
            x = t = 0
            if len(src) == 2:  # merge of circles a and b into m
                ab, m = 1 << src[0] | 1 << src[1], 1 << dst[0]
                for g in range(1 << k):
                    if g:
                        flip = (g & -g).bit_length() - 1
                        x ^= 1 << flip
                        t ^= tbl[flip]
                    if x & ab != ab:
                        img[x] ^= 1 << ct[t | m if x & ab else t]
            else:  # split of circle a into u and v
                a, u, v = 1 << src[0], 1 << dst[0], 1 << dst[1]
                for g in range(1 << k):
                    if g:
                        flip = (g & -g).bit_length() - 1
                        x ^= 1 << flip
                        t ^= tbl[flip]
                    if x & a:
                        img[x] ^= 1 << ct[t | u | v]
                    else:
                        img[x] ^= 1 << ct[t | u] ^ 1 << ct[t | v]
        for x, idx in enumerate(col[mask]):
            rows[(r, base - 2 * x.bit_count())][idx] = img[x]
    return dims, rows, n_minus


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
    dims, rows, n_minus = _assemble(d)
    rank_d = {key: _rank(rws) for key, rws in rows.items()}
    ranks = {}
    for (r, j), dim in sorted(dims.items()):
        h = dim - rank_d.get((r, j), 0) - rank_d.get((r - 1, j), 0)
        if h:
            ranks[(r - n_minus, j)] = h
    return ranks


def d_squared_zero(d: LinkDiagram) -> bool:
    """Check d∘d = 0 on the assembled differential, block by block."""
    dims, rows, _ = _assemble(d)
    for (r, j), rws in rows.items():
        nxt = rows.get((r + 1, j))
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
