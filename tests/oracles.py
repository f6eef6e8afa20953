"""Independent cross-checks used by the test suite.

Everything here is implemented from first principles, separately from
the package code, so that agreement is meaningful. The main tool is the
unreduced (numerator, denominator) determinant pair of an algebraic
tangle:

    pair(integer n)   = (n, 1)
    pair(flip T)      = swapped pair
    pair(A + B)       = (n_A d_B + n_B d_A, d_A d_B), never reduced
    pair(mirror T)    = (-n, d)

det of the numerator closure of T is |n|. The rules are the classical
series/parallel (Kirchhoff) identities for the Goeritz determinant, so
they hold for every algebraic (non-polyhedral) symbol.

brute_canonical_code reads a diagram's code from every start to the
end and keeps the smallest, the definition that the package's
lockstep read prunes.
"""

from fractions import Fraction

from qalinks import conway
from qalinks.conway import Neg, Param, Poly, Prod, Ram, Seq


class OracleUnsupported(Exception):
    pass


def cf_value(terms):
    """Continued fraction a_n + 1/(a_{n-1} + ... + 1/a_1), nested eval."""
    value = Fraction(terms[0])
    for t in terms[1:]:
        if value == 0:
            raise ZeroDivisionError
        value = Fraction(t) + 1 / value
    return value


def _mirror(node):
    if isinstance(node, Seq):
        return Seq(tuple(-t for t in node.terms))
    if isinstance(node, Ram):
        return Ram(tuple(_mirror(p) for p in _summands(node)))
    if isinstance(node, Prod):
        return Prod(tuple(_mirror(f) for f in node.factors))
    if isinstance(node, Neg):
        return node.inner
    raise OracleUnsupported(type(node).__name__)


def _summands(ram):
    out = []
    for part, run in zip(ram.parts, ram.runs):
        if isinstance(run, Param):
            raise OracleUnsupported("parameter run")
        out.append(part)
        if run < 0:
            out[run:] = [_mirror(p) for p in out[run:]]
        else:
            out.extend([Seq((1,))] * run)
    return out


def _pair_add(a, b):
    return (a[0] * b[1] + b[0] * a[1], a[1] * b[1])


def tangle_pair(node):
    """Unreduced (numerator det, denominator det) of an algebraic tangle."""
    if isinstance(node, Seq):
        pair = None
        for t in node.terms:
            if isinstance(t, Param):
                raise OracleUnsupported("parameter")
            if pair is None:
                pair = (t, 1)
            else:
                pair = _pair_add((pair[1], pair[0]), (t, 1))
        return pair
    if isinstance(node, Ram):
        pair = (0, 1)
        for part in _summands(node):
            n, d = tangle_pair(part)
            pair = _pair_add(pair, (d, n))
        return pair
    if isinstance(node, Prod):
        pair = tangle_pair(node.factors[0])
        for f in node.factors[1:]:
            n, d = tangle_pair(f)
            pair = _pair_add((pair[1], pair[0]), (n, d))
        return pair
    if isinstance(node, Neg):
        n, d = tangle_pair(node.inner)
        return -n, d
    if isinstance(node, Poly):
        raise OracleUnsupported("polyhedral")
    raise OracleUnsupported(type(node).__name__)


def symbol_det(text) -> int:
    """Determinant of the link named by an algebraic Conway symbol."""
    n, _ = tangle_pair(conway.parse(text))
    return abs(n)


def code_from(d, start, side):
    """Rows of start's piece, read breadth first from slot side of
    crossing start; a crossing gets its id and slot offset when first
    seen."""
    newid = {start: 0}
    offset = {start: side}
    order = [start]
    code = []
    for c in order:
        row = []
        for k in range(4):
            q = d.adj[4 * c + (offset[c] + k) % 4]
            e = q // 4
            if e not in newid:
                newid[e] = len(order)
                offset[e] = q % 4 - q % 2
                order.append(e)
            row.append((newid[e], (q - offset[e]) % 4))
        code.append(tuple(row))
    return tuple(code)


def brute_canonical_code(d) -> str:
    """canonical_code by brute force: each piece's code is the min of
    its full codes from all starts (crossing, slot 0 or 2), and the
    pieces are sorted."""
    pieces, covered = [], set()
    for c0 in range(d.n):
        if c0 in covered:
            continue
        piece, stack = {c0}, [c0]
        while stack:
            c = stack.pop()
            for s in range(4):
                e = d.adj[4 * c + s] // 4
                if e not in piece:
                    piece.add(e)
                    stack.append(e)
        covered |= piece
        pieces.append(min(code_from(d, c, side)
                          for c in piece for side in (0, 2)))
    body = ";".join(
        ",".join(" ".join("%d.%d" % pq for pq in row) for row in code)
        for code in sorted(pieces))
    return body + "|%d" % d.loops
