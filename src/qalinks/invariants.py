"""Exact diagram invariants: bracket, Jones, determinant, signature.

The bracket is the Kauffman state sum, folded from the planar matching
walk diagram.scan_walk.

Jones polynomials are returned in the square root of the usual
variable: exponents are doubled, which keeps them integral for links
with any number of components.

The determinant and signature come from a checkerboard coloring. The
Goeritz matrix of the white faces gives the determinant; the signature
corrects the signature of that matrix by the count of crossings whose
strands pierce the white surface coherently, following Gordon and
Litherland. Both checkerboard colors must give the same answer, which
the tests exercise.

The Goeritz matrix is the Laplacian of the Tait graph on the white
faces, with one edge of weight eta = +-1 per crossing, and its reduced
determinant is the weighted count of spanning trees. Smoothing a
crossing either merges its two white faces (the edge is contracted)
or keeps them apart (the edge is deleted), so deletion-contraction,
det G = det(G - e) + eta * det(G / e), gives both smoothing
determinants of every crossing from the one matrix of the diagram.
By the matrix determinant lemma each contraction is a quadratic form
in the adjugate of the reduced matrix, so smoothing_determinants
eliminates that matrix once, for its determinant and adjugate
together, as quasi-alternating searches need at every node
(Ozsvath-Szabo, arXiv:math/0309170; Champanerkar-Kofman,
arXiv:0712.2265).
"""

from __future__ import annotations

import weakref

from qalinks import diagram as diag


class SizeLimitError(RuntimeError):
    """Raised only by homology's caps, CROSSING_CAP and DIM_CAP; kept
    here since perfbench/run.py catches invariants.SizeLimitError."""


class LaurentPoly:
    """Integer Laurent polynomial in one variable."""

    __slots__ = ("c", "__weakref__")

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, v in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
                if v:
                    c[e] = c.get(e, 0) + v
                    if not c[e]:
                        del c[e]
        self.c = c

    @classmethod
    def term(cls, coeff, exp=0):
        return cls({exp: coeff})

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.term(other)
        return isinstance(other, LaurentPoly) and self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.term(other)
        out = dict(self.c)
        for e, v in other.c.items():
            out[e] = out.get(e, 0) + v
            if not out[e]:
                del out[e]
        p = LaurentPoly.__new__(LaurentPoly)
        p.c = out
        return p

    __radd__ = __add__

    def __neg__(self):
        p = LaurentPoly.__new__(LaurentPoly)
        p.c = {e: -v for e, v in self.c.items()}
        return p

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.term(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.term(other)
        out = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + v1 * v2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = LaurentPoly.term(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def shift(self, k):
        """Multiply by variable**k."""
        return LaurentPoly({e + k: v for e, v in self.c.items()})

    def reverse(self):
        """Substitute the variable by its inverse."""
        return LaurentPoly({-e: v for e, v in self.c.items()})

    def coeff(self, e):
        return self.c.get(e, 0)

    def exponents(self):
        return sorted(self.c)

    def __str__(self):
        return self.format("x")

    def format(self, var):
        if not self.c:
            return "0"
        bits = []
        for e in sorted(self.c, reverse=True):
            v = self.c[e]
            if e == 0:
                body = str(abs(v))
            else:
                head = "" if abs(v) == 1 else "%d*" % abs(v)
                body = "%s%s^%d" % (head, var, e) if e != 1 else "%s%s" % (head, var)
            if not bits:
                bits.append(("-" if v < 0 else "") + body)
            else:
                bits.append(("- " if v < 0 else "+ ") + body)
        return " ".join(bits)

    def __repr__(self):
        return "LaurentPoly(%s)" % self.format("x")


def bracket(d) -> LaurentPoly:
    """Kauffman bracket, normalized to 1 on a single circle.

    A fold of diagram.scan_walk: per matching, the states reaching it
    with b B smoothings and k loops, each weighing A^(n - 2b) times
    delta^(k - 1), delta = -A^2 - A^-2.  Free loops count, and the one
    matching left at the end, the cut arc, closes one more loop.  There
    is no crossing cap; tests/oracles.py keeps the 2^n state sum.
    """
    if d.n == 0 and d.loops == 0:
        raise diag.DisconnectedDiagramError(
            "the empty link has no normalized Jones polynomial")
    cut, steps = diag.scan_walk(d)
    # per matching, its states as one int: the count with k loops and b
    # B smoothings is digit k * w + b in base 2^(n + 1), wide enough for
    # all 2^n states, k counting the free loops and the cut arc's from
    # the start
    bits = w = d.n + 1
    layer = [1 << (d.loops + bool(cut)) * w * bits]
    for _, _, _, mats, moves in steps:
        nxt = [0] * len(mats)
        for x, ((ja, la), (jb, lb)) in zip(layer, moves):
            nxt[ja] += x << len(la) * w * bits
            nxt[jb] += x << (len(lb) * w + 1) * bits
        layer = nxt
    # per loop count k, the sum of A^(n - 2b) over its states, then the
    # sum over k of that times delta^(k - 1), by Horner's rule
    x, sums = layer[0], {}
    for key in range(x.bit_length() // bits + 1):
        v = x >> key * bits & (1 << bits) - 1
        if v:
            sums.setdefault(key // w, {})[d.n - 2 * (key % w)] = v
    out = {}
    for k in range(max(sums), 0, -1):
        here = dict(sums.get(k, ()))
        for e, v in out.items():
            here[e + 2] = here.get(e + 2, 0) - v
            here[e - 2] = here.get(e - 2, 0) - v
        out = here
    return LaurentPoly(out)


# The live Jones polynomials by their terms, so that the rows of a table
# kept side by side share equal ones; a LaurentPoly is never changed in
# place, and an entry goes once no caller holds its polynomial.
_JONES = weakref.WeakValueDictionary()


def jones(d) -> LaurentPoly:
    """Jones polynomial in the square root of the usual variable.

    Exponents are twice the usual ones, so knots only use even
    exponents while odd component counts never force fractions.
    The unknot maps to 1.
    """
    w = diag.writhe(d)
    br = bracket(d)
    signed = LaurentPoly.term((-1) ** (w % 2), -3 * w) * br
    # variable change: bracket exponent e contributes t^(-e/4)
    out = {}
    for e, v in signed.c.items():
        if e % 2:
            raise AssertionError("odd bracket exponent after writhe twist")
        out[-e // 2] = v
    poly = LaurentPoly(out)
    return _JONES.setdefault(tuple(sorted(poly.c.items())), poly)


def determinant(d) -> int:
    """Link determinant, the reduced Goeritz minor of the white faces,
    read off the symmetric reduction that also gives the signature.

    Independent of smoothing_determinants' adjugate, so certificate
    audits recompute with it."""
    if d.n == 0:
        return 1 if d.loops == 1 else 0
    try:
        g, _, _ = _goeritz(d, 0)
    except diag.DisconnectedDiagramError:
        return 0
    return abs(_sym_reduce(_minor(g, (0,)))[1])


def smoothing_determinants(d):
    """(det d, [(det of the A smoothing, det of the B smoothing), ...]).

    The pair at crossing c equals the determinants of smooth(d, c, "A")
    and smooth(d, c, "B"), and all of them are read off the diagram's
    one reduced Goeritz matrix R (row 0 dropped).  R is built on the
    checkerboard color with fewer faces, ties to color 0: every value
    is the determinant of a link, which either color gives, and the
    elimination is cubic in the size of R.  Those faces are the white
    ones below.  Corner s lies between slots s and s+1; A joins
    corners 1 and 3, B joins corners 0 and 2.  So where the white
    faces sit at corners 0 and 2 (eta = 1), B merges them and
    contracts the crossing's Tait edge while A deletes it; at eta = -1
    the roles swap.  With b = e_i - e_j for the edge's two faces, row
    0 dropped, the matrix determinant lemma on the Laplacian gives the
    contraction as b^T adj(R) b, and the deletion as det R - eta * b^T
    adj(R) b.  One sweep of R gives det R and -adj R at the face rows,
    face 0's zero, so a loop edge (one white face at both corners)
    reads 0 and contracts to a split diagram, determinant 0.  When the
    sweep runs out of pivots, as on a singular R (a connected diagram
    of determinant 0), each contraction is read as the minor without
    both faces' rows instead.
    """
    if d.n == 0:
        return (1 if d.loops == 1 else 0), []
    try:
        g, etas, rows = _goeritz(d, None)
    except diag.DisconnectedDiagramError:
        return 0, [(0, 0)] * d.n
    whole, neg = _det_adj(g)
    out = []
    for eta, (i, j) in zip(etas, rows):
        if neg is not None:
            # b^T adj(R) b, off the symmetric -adj(R)
            row = neg[i]
            con = 2 * row[j] - row[i] - neg[j][j]
        else:
            con = _sym_reduce(_minor(g, (i, j)))[1] if i != j else 0
        dele = abs(whole - eta * con)
        out.append((dele, abs(con)) if eta == 1 else (abs(con), dele))
    return abs(whole), out


def _goeritz(d, color):
    """Goeritz matrix of the faces of one color, with etas and face rows.

    color None picks the color with fewer faces, ties to color 0.
    The matrix has one row per face of this color and rows summing to
    zero; any principal minor one row smaller is the reduced matrix.
    etas[c] is the corner type of crossing c: 1 when its two faces of
    this color sit at corners 0 and 2, -1 at corners 1 and 3.  rows[c]
    holds the rows of those two faces, equal when they are one face.

    The faces are those of diag.faces, the diagram module's one face
    walk, in its order, and face 0 has color 0; one pass over them
    gives each plug the row of the face leaving it, counted among the
    faces of its color.  Colors follow corner alternation: the faces
    leaving the four slots of a crossing alternate, and the faces
    either side of an arc differ, so the face leaving plug 4c + s has
    color flip[c] ^ (s & 1) for one bit flip[c] per crossing, and each
    face takes the color of its first dart.  Raises
    DisconnectedDiagramError on a split diagram.
    """
    if not d.n or d.loops:
        raise diag.DisconnectedDiagramError("diagram is split")
    adj = d.adj
    flip = [-1] * d.n
    flip[0] = 0  # face 0 leaves plug 0
    stack = [0]
    while stack:
        c = stack.pop()
        for p in range(4 * c, 4 * c + 4):
            q = adj[p]
            if flip[q >> 2] < 0:
                flip[q >> 2] = (flip[c] ^ p ^ q ^ 1) & 1
                stack.append(q >> 2)
    fs = diag.faces(d)
    # a connected diagram with n crossings has n+2 faces by Euler
    if len(fs) != d.n + 2:
        raise diag.DisconnectedDiagramError("diagram is split")
    row, count = [0] * (4 * d.n), [0, 0]
    for face in fs:
        k = flip[face[0] >> 2] ^ face[0] & 1
        i = count[k]
        count[k] = i + 1
        for p in face:
            row[p] = i
    if color is None:
        color = int(count[1] < count[0])
    g = [[0] * count[color] for _ in range(count[color])]
    etas, rows = [], []
    for c in range(d.n):
        # corner s is the face leaving slot s + 1; corners 0 and 2 have
        # color flip[c] ^ 1
        if flip[c] != color:
            eta, i, j = 1, row[4 * c + 1], row[4 * c + 3]
        else:
            eta, i, j = -1, row[4 * c + 2], row[4 * c]
        etas.append(eta)
        rows.append((i, j))
        if i != j:
            g[i][j] -= eta
            g[j][i] -= eta
            g[i][i] += eta
            g[j][j] += eta
    return g, etas, rows


def _minor(g, drop):
    """g without the rows and columns listed in drop."""
    keep = [r for r in range(len(g)) if r not in drop]
    return [[g[r][s] for s in keep] for r in keep]


def signature(d) -> int:
    """Link signature from the Goeritz form with the surface correction."""
    if d.n == 0:
        if d.loops == 1:
            return 0
        raise diag.DisconnectedDiagramError("signature needs one diagram")
    return _signature_colored(d, 0)


def _signature_colored(d, color):
    g, etas, _ = _goeritz(d, color)
    sig, _ = _sym_reduce(_minor(g, (0,)))
    # a crossing pierces the white surface coherently when its sign
    # agrees with its corner type
    mu = sum(eta for sign, eta in zip(diag.crossing_signs(d), etas)
             if sign == eta)
    return sig - mu


def _det_adj(g):
    """(det R, -adj R) for R, g without row and column 0, by one
    fraction-free sweep (Gauss-Jordan in place) of R's diagonal.

    Pivot p at k maps each x off row and column k to (x * p - f * y) /
    prev, f and y being x's entries in column and row k and prev the
    pivot before (exact, as in Bareiss); row and column k stay, and the
    pivot becomes -prev.  Any pivot order ends at det R and -adj R, so
    each step takes the first row left with a nonzero diagonal entry.
    -adj R keeps g's indices, with row and column 0 zero; it is None
    when the diagonal runs out, as on every singular R, and det R then
    comes from _sym_reduce.  g is left alone.
    """
    n = len(g)
    a = [[0] * n] + [[0] + row[1:] for row in g[1:]]
    todo, prev = list(range(1, n)), 1
    while todo:
        for k in todo:
            if a[k][k]:
                break
        else:
            return _sym_reduce(_minor(g, (0,)))[1], None
        todo.remove(k)
        top = a[k]
        p = top[k]
        for r in range(1, n):
            f = a[r][k]
            # a row with nothing to clear is unchanged when p == prev
            if r != k and (f or p != prev):
                a[r] = [(x * p - f * y) // prev for x, y in zip(a[r], top)]
                a[r][k] = f
        top[k] = -prev
        prev = p
    return prev, a


def _sym_reduce(m):
    """(signature, determinant) of a symmetric integer matrix, in
    integers.

    The pivots are those of Lagrange's reduction: the first nonzero
    diagonal entry, or, with the diagonal all zero, the first nonzero
    off-diagonal pair (a hyperbolic plane, signature 0).  The matrix is
    held as D times the Schur complement of the pivots so far, where D
    is the determinant of their block; by Sylvester's identity every
    entry is then a minor of m, so each division is exact, as in
    Bareiss.  A diagonal pivot p counts sign(p / D) and becomes D; a
    pair with entry b turns D into -b^2 / D.  Once every row has been
    a pivot, the last block is all of m, so D is det m; when the rest
    of the matrix is zero before that, m is singular and det m is 0.
    """
    sig, den = 0, 1
    while m:
        n = len(m)
        pivot = next((i for i in range(n) if m[i][i]), None)
        if pivot is not None:
            i = pivot
            a = m[i][i]
            sig += 1 if (a > 0) == (den > 0) else -1
            rest = [r for r in range(n) if r != i]
            m = [[(a * m[r][t] - m[r][i] * m[i][t]) // den for t in rest]
                 for r in rest]
            den = a
            continue
        off = next(((i, j) for i in range(n) for j in range(i + 1, n)
                    if m[i][j]), None)
        if off is None:
            return sig, 0
        i, j = off
        b = m[i][j]
        rest = [r for r in range(n) if r not in (i, j)]
        m = [[b * (m[r][i] * m[j][t] + m[r][j] * m[i][t] - b * m[r][t])
              // (den * den) for t in rest] for r in rest]
        den = -b * b // den
    return sig, den
