"""Exact diagram invariants: bracket, Jones, determinant, signature.

The bracket is a plain state sum over the circle counts of
diagram.state_circles, so it is capped at BRACKET_CAP crossings.
Jones polynomials are returned in the square root of the usual
variable: exponents are doubled, which keeps them integral for links
with any number of components.

The determinant and signature come from a checkerboard coloring. The
Goeritz matrix of the white faces gives the determinant; the signature
corrects the signature of that matrix by the count of crossings whose
strands pierce the white surface coherently, following Gordon and
Litherland. Both checkerboard colors must give the same answer, which
the tests exercise.
"""

from __future__ import annotations

from fractions import Fraction

from qalinks import diagram as diag


class SizeLimitError(RuntimeError):
    pass


BRACKET_CAP = 24


class LaurentPoly:
    """Integer Laurent polynomial in one variable."""

    __slots__ = ("c",)

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

    def scale_exponents(self, k):
        return LaurentPoly({e * k: v for e, v in self.c.items()})

    def evaluate(self, x):
        x = Fraction(x)
        total = Fraction(0)
        for e, v in self.c.items():
            total += v * x ** e
        return total

    def coeff(self, e):
        return self.c.get(e, 0)

    def exponents(self):
        return sorted(self.c)

    def min_exp(self):
        return min(self.c) if self.c else 0

    def max_exp(self):
        return max(self.c) if self.c else 0

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


def _delta_power(k, cache={}):
    if k not in cache:
        delta = LaurentPoly({2: -1, -2: -1})
        cache[k] = delta ** k
    return cache[k]


def bracket(d) -> LaurentPoly:
    """Kauffman bracket, normalized to 1 on a single circle."""
    n = d.n
    if n > BRACKET_CAP:
        raise SizeLimitError("%d crossings exceed the bracket cap" % n)
    counts = {}
    for state in range(1 << n):
        # A smoothings weigh +1, B smoothings (set bits) -1
        key = (n - 2 * state.bit_count(),
               len(diag.state_circles(d, state)) + d.loops)
        counts[key] = counts.get(key, 0) + 1
    out = LaurentPoly()
    for (exp, circles), mult in counts.items():
        out = out + LaurentPoly.term(mult, exp) * _delta_power(circles - 1)
    return out


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
    return LaurentPoly(out)


def determinant(d) -> int:
    """Link determinant, via the Goeritz matrix of the white faces."""
    if d.n == 0:
        return 1 if d.loops == 1 else 0
    if d.loops or len(diag.graph_components(d)) > 1:
        return 0
    g, _ = _goeritz_reduced(d, 0)
    return abs(_int_det(g))


def _corner_faces(d):
    """corner (c, s) between slots s and s+1 -> face index."""
    fs, colors = diag.checkerboard(d)
    corner = {}
    for i, face in enumerate(fs):
        for p, q in face:
            corner[(q // 4, q % 4)] = i
    return fs, colors, corner


def _goeritz_full(d, color):
    """Goeritz matrix over all white faces plus crossing bookkeeping.

    Returns (matrix, rows, entries) where entries[c] = (i, j, eta) for
    crossings whose white corners lie in distinct faces.
    """
    fs, colors, corner = _corner_faces(d)
    white = [i for i in range(len(fs)) if colors[i] == color]
    row = {f: i for i, f in enumerate(white)}
    k = len(white)
    g = [[0] * k for _ in range(k)]
    entries = {}
    for c in range(d.n):
        faces_here = [corner[(c, s)] for s in range(4)]
        pair = [s for s in range(4) if colors[faces_here[s]] == color]
        if pair == [0, 2]:
            eta = 1
        elif pair == [1, 3]:
            eta = -1
        else:
            raise AssertionError("corners do not alternate")
        i, j = row[faces_here[pair[0]]], row[faces_here[pair[1]]]
        entries[c] = (i, j, eta)
        if i != j:
            g[i][j] -= eta
            g[j][i] -= eta
            g[i][i] += eta
            g[j][j] += eta
    return g, white, entries


def _goeritz_reduced(d, color):
    g, white, entries = _goeritz_full(d, color)
    reduced = [row[1:] for row in g[1:]]
    return reduced, entries


def signature(d) -> int:
    """Link signature from the Goeritz form with the surface correction."""
    if d.n == 0:
        if d.loops == 1:
            return 0
        raise diag.DisconnectedDiagramError("signature needs one diagram")
    if d.loops or len(diag.graph_components(d)) > 1:
        raise diag.DisconnectedDiagramError("signature needs one diagram")
    return _signature_colored(d, 0)


def _signature_colored(d, color):
    g, entries = _goeritz_reduced(d, color)
    sig = _sym_signature([[Fraction(v) for v in row] for row in g])
    mu = 0
    for c, sign in enumerate(diag.crossing_signs(d)):
        _, _, eta = entries[c]
        # a crossing pierces the white surface coherently when its sign
        # agrees with its corner type
        if sign == eta:
            mu += eta
    return sig - mu


def _int_det(m):
    n = len(m)
    if n == 0:
        return 1
    m = [[Fraction(v) for v in row] for row in m]
    det = Fraction(1)
    for i in range(n):
        pivot = None
        for r in range(i, n):
            if m[r][i]:
                pivot = r
                break
        if pivot is None:
            return 0
        if pivot != i:
            m[i], m[pivot] = m[pivot], m[i]
            det = -det
        det *= m[i][i]
        inv = 1 / m[i][i]
        for r in range(i + 1, n):
            if m[r][i]:
                f = m[r][i] * inv
                for cc in range(i, n):
                    m[r][cc] -= f * m[i][cc]
    assert det.denominator == 1
    return int(det)


def _sym_signature(m):
    """Signature of a symmetric matrix over the rationals."""
    m = [row[:] for row in m]
    sig = 0
    while m:
        n = len(m)
        pivot = next((i for i in range(n) if m[i][i]), None)
        if pivot is not None:
            i = pivot
            a = m[i][i]
            sig += 1 if a > 0 else -1
            rest = [r for r in range(n) if r != i]
            nxt = [[m[r][t] - m[r][i] * m[i][t] / a for t in rest] for r in rest]
            m = nxt
            continue
        off = next(((i, j) for i in range(n) for j in range(i + 1, n)
                    if m[i][j]), None)
        if off is None:
            break
        i, j = off
        b = m[i][j]
        rest = [r for r in range(n) if r not in (i, j)]
        # hyperbolic pair: contributes +1 and -1
        nxt = [[m[r][t] - (m[r][i] * m[j][t] + m[r][j] * m[i][t]) / b
                for t in rest] for r in rest]
        m = nxt
    return sig
