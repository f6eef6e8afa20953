"""Khovanov homology over F2 from the cube of resolutions.

The zero smoothing of every crossing is the A smoothing (plugs (0,1)
and (2,3) joined), the one smoothing is B, matching the bracket
conventions in the invariants module.  A state with r one-smoothings
sits in homological degree i = r - n_minus; a labeling of its circles
with deg = (#unit - #x) sits in quantum degree j = deg + r + n_plus
- 2*n_minus.  Crossing signs come from the same traversal orientation
the writhe uses, so the graded Euler characteristic lands exactly on
(q + 1/q) times the Jones polynomial as stored next door.

The circles of every state come from diagram.state_circles; a circle
that a cube edge leaves untouched keeps its plug tuple, so the tuples
themselves match up the circles at both ends of an edge.

Ranks are computed blockwise: the differential preserves j and raises
the state weight r by one, so each (r, j) block eliminates on its own,
with rows kept as python-int bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass

from qalinks.diagram import LinkDiagram, crossing_signs, state_circles
from qalinks.invariants import SizeLimitError

CROSSING_CAP = 12
DIM_CAP = 1 << 22


def _edge(circ_s, circ_t, t_mask):
    """Descriptor of one cube edge between adjacent states.

    Returns (t_mask, tbl, kind, specials) where tbl[b] is the image
    bitmask contributed by source circle b when it is not involved in
    the merge or split, kind is "m" or "s", and specials carries the
    involved circle indices: (a, b, m) for a merge of a and b into m,
    (a, u, v) for a split of a into u and v.
    """
    pos_t = {key: i for i, key in enumerate(circ_t)}
    pos_s = {key: i for i, key in enumerate(circ_s)}
    tbl = []
    touched_s = []
    for b, key in enumerate(circ_s):
        i = pos_t.get(key)
        if i is None:
            touched_s.append(b)
            tbl.append(0)
        else:
            tbl.append(1 << i)
    touched_t = [i for i, key in enumerate(circ_t) if key not in pos_s]
    if len(touched_s) == 2 and len(touched_t) == 1:
        a, b = touched_s
        return t_mask, tbl, "m", (a, b, touched_t[0])
    if len(touched_s) == 1 and len(touched_t) == 2:
        u, v = touched_t
        return t_mask, tbl, "s", (touched_s[0], u, v)
    raise AssertionError("cube edge is neither a merge nor a split")


def _assemble(d: LinkDiagram, max_crossings, max_dim):
    """Column numbering and aligned differential rows per (r, j) block."""
    if d.n > max_crossings:
        raise SizeLimitError("%d crossings exceed the cap %d"
                             % (d.n, max_crossings))
    signs = crossing_signs(d)
    n_plus = sum(1 for s in signs if s > 0)
    n_minus = d.n - n_plus
    # circle keys per state, free loops appended last
    loops = [("loop", i) for i in range(d.loops)]
    circles = [state_circles(d, mask) + loops for mask in range(1 << d.n)]
    total = sum(1 << len(keys) for keys in circles)
    if total > max_dim:
        raise SizeLimitError("chain dimension %d exceeds the cap %d"
                             % (total, max_dim))
    dims = {}
    col = {}
    for mask in range(1 << d.n):
        k = len(circles[mask])
        base = mask.bit_count() + n_plus - 2 * n_minus
        r = mask.bit_count()
        for x in range(1 << k):
            key = (r, base + k - 2 * x.bit_count())
            idx = dims.get(key, 0)
            dims[key] = idx + 1
            col[(mask, x)] = idx
    rows = {key: [0] * dim for key, dim in dims.items()}
    for mask in range(1 << d.n):
        k = len(circles[mask])
        r = mask.bit_count()
        base = r + n_plus - 2 * n_minus
        img = [0] * (1 << k)
        for c in range(d.n):
            if mask >> c & 1:
                continue
            t_mask, tbl, kind, sp = _edge(
                circles[mask], circles[mask | 1 << c], mask | 1 << c)
            # walk labelings in Gray order, one transferred bit per step
            x, t = 0, 0
            for g in range(1 << k):
                if g:
                    flip = (g & -g).bit_length() - 1
                    x ^= 1 << flip
                    t ^= tbl[flip]
                if kind == "m":
                    a, b, m = sp
                    la, lb = x >> a & 1, x >> b & 1
                    if la and lb:
                        continue
                    img[x] ^= 1 << col[(t_mask, t | (la | lb) << m)]
                else:
                    a, u, v = sp
                    if x >> a & 1:
                        img[x] ^= 1 << col[(t_mask, t | 1 << u | 1 << v)]
                    else:
                        img[x] ^= 1 << col[(t_mask, t | 1 << u)]
                        img[x] ^= 1 << col[(t_mask, t | 1 << v)]
        for x in range(1 << k):
            j = base + k - 2 * x.bit_count()
            rows[(r, j)][col[(mask, x)]] = img[x]
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


def khovanov_f2(d: LinkDiagram, max_crossings=CROSSING_CAP,
                max_dim=DIM_CAP) -> dict:
    """Ranks of F2 Khovanov homology as a map (i, j) -> dimension."""
    dims, rows, n_minus = _assemble(d, max_crossings, max_dim)
    rank_d = {key: _rank(rws) for key, rws in rows.items()}
    ranks = {}
    for (r, j), dim in sorted(dims.items()):
        h = dim - rank_d.get((r, j), 0) - rank_d.get((r - 1, j), 0)
        if h:
            ranks[(r - n_minus, j)] = h
    return ranks


def d_squared_zero(d: LinkDiagram, max_crossings=CROSSING_CAP,
                   max_dim=DIM_CAP) -> bool:
    """Check d∘d = 0 on the assembled differential, block by block."""
    dims, rows, _ = _assemble(d, max_crossings, max_dim)
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
