"""Conway notation for knots and links, LinKnot dialect.

Dialect rules implemented here:

* an integer sequence "a1 a2 ... an" is the rational tangle whose slope
  is the continued fraction an + 1/(a_{n-1} + ... + 1/a1)
* a leading minus mirrors the whole rational factor: "-2 2" is the
  mirror image of "2 2" (every crossing switched), not (-2) then 2
* "," joins tangles after flipping each over the NW-SE diagonal
  (pretzel style); juxtaposition "t1 t2" is Conway's product, flip t1
  over the diagonal and add t2 on the right
* twist marks after a part of a comma join, and "-( )", resolve at
  parse, so the syntax tree holds only what the symbol means: a run of
  k "+" inserts k parts "1" where it stands, a run of k "-" mirrors the
  k parts before it, and "-( ... )" is the mirror of the group
* polyhedral symbols are built on the basic polyhedra 6*, 8*, 9*, 10*,
  10**, 10***; vertex tangles are separated by ".", a ":" abbreviates
  ".1.", omitted and trailing slots default to 1, and a symbol whose
  separators appear without a basis prefix lives on 6*
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from fractions import Fraction


class ConwaySyntaxError(ValueError):
    def __init__(self, message, pos=None):
        if pos is not None:
            message = "%s (at position %d)" % (message, pos)
        super().__init__(message)
        self.pos = pos


class UnknownBasisError(ConwaySyntaxError):
    pass


class VertexArityError(ConwaySyntaxError):
    pass


class NotRationalTangleError(ValueError):
    pass


class NotMontesinosFormError(ValueError):
    pass


@dataclass(frozen=True)
class Seq:
    """Rational tangle given by an integer sequence."""

    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise ValueError("empty twist sequence")


@dataclass(frozen=True)
class Ram:
    """Comma join of tangles, each part flipped over the main diagonal."""

    parts: tuple


@dataclass(frozen=True)
class Prod:
    """Conway product of two or more tangle factors, left associated."""

    factors: tuple


@dataclass(frozen=True)
class Poly:
    """Basic polyhedron with a tangle substituted at every vertex."""

    basis: str
    slots: tuple


BASIS_VERTICES = {"6*": 6, "8*": 8, "9*": 9, "10*": 10, "10**": 10, "10***": 10}

_ONE = Seq((1,))


def _digit(ch):
    """ch is one of 0-9; str.isdigit also takes digits such as "²" that
    a symbol may not hold."""
    return "0" <= ch <= "9"


class _Parser:
    """Reads one tangle from text[i:end]; positions index all of text."""

    def __init__(self, text, i, end):
        self.text = text
        self.i = i
        self.end = end

    def peek(self, off=0):
        j = self.i + off
        return self.text[j] if j < self.end else ""

    def error(self, message):
        raise ConwaySyntaxError(message, self.i)

    def expect_end(self):
        if self.i != self.end:
            self.error("unexpected %r" % self.peek())

    def parse_ram(self):
        """A comma join, each part's twist marks resolved in place."""
        parts = []
        written = 0
        while True:
            parts.append(self.parse_prod())
            written += 1
            run = self.parse_marks(written)
            if run > 0:
                parts.extend([_ONE] * run)
            elif run < 0:
                parts[run:] = [mirror_expr(p) for p in parts[run:]]
            if self.peek() != ",":
                break
            self.i += 1
            if self.peek() == " ":
                self.i += 1
        if written == 1 and not run:
            return parts[0]
        return Ram(tuple(parts))

    def parse_marks(self, parts_written):
        """Twist marks after a part, a run of "+" or of "-": the run's
        length, negative for "-"."""
        mark = self.peek()
        if mark not in ("+", "-"):
            return 0
        count = 0
        while self.peek() == mark:
            count += 1
            self.i += 1
        if self.peek() in ("+", "-"):
            self.error("mixed + and - twist marks")
        if mark == "+":
            return count
        if count > parts_written:
            self.error("more - marks than parts")
        return -count

    def parse_prod(self):
        factors = []
        terms = []

        def flush():
            if terms:
                factors.append(Seq(tuple(terms)))
                del terms[:]

        at_start = True
        while True:
            ch = self.peek()
            if ch == " ":
                nxt = self.peek(1)
                if nxt == "(" or _digit(nxt) or (
                    nxt == "-" and (self.peek(2) == "(" or _digit(self.peek(2)))
                ):
                    self.i += 1
                    at_start = True
                    continue
                break
            if ch == "(":
                flush()
                factors.append(self.parse_group())
                at_start = False
            elif ch == "-" and at_start and self.peek(1) == "(":
                flush()
                self.i += 1
                factors.append(mirror_expr(self.parse_group()))
                at_start = False
            elif ch == "-" and at_start and _digit(self.peek(1)):
                self.i += 1
                terms.extend(-t for t in self.parse_term_run())
                at_start = False
            elif _digit(ch):
                terms.extend(self.parse_term_run())
                at_start = False
            else:
                break
        flush()
        if not factors:
            self.error("expected a tangle")
        if len(factors) == 1:
            return factors[0]
        return Prod(tuple(factors))

    def parse_term_run(self):
        """Space separated integers up to the next break."""
        run = [self.parse_term()]
        while self.peek() == " " and _digit(self.peek(1)):
            self.i += 1
            run.append(self.parse_term())
        return run

    def parse_term(self):
        j = self.i
        while _digit(self.peek()):
            self.i += 1
        return int(self.text[j:self.i])

    def parse_group(self):
        if self.peek() != "(":
            self.error("expected (")
        self.i += 1
        if self.peek() == " ":
            self.i += 1
        inner = self.parse_ram()
        if self.peek() == " ":
            self.i += 1
        if self.peek() != ")":
            self.error("expected )")
        self.i += 1
        return inner


def _split_slots(text, start):
    """Spans (i, j) of the slots of text[start:], split on top level
    dots; a ':' reads as '.1.', its middle slot the empty span."""
    spans = []
    depth = 0
    for j in range(start, len(text)):
        ch = text[j]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in ".:" and depth == 0:
            spans.append((start, j))
            if ch == ":":
                spans.append((j, j))
            start = j + 1
    spans.append((start, len(text)))
    return spans


def parse(text: str):
    """Parse a Conway symbol into the syntax tree of what it means.

    Twist marks and "-( )" groups resolve here, so two spellings of one
    tangle, such as "3,3,2-" and "3,3,-2", give equal trees.

    The pos of a ConwaySyntaxError indexes the symbol after its ends are
    stripped of whitespace and each inner run of whitespace is collapsed
    to one space.
    """
    src = re.sub(r"\s+", " ", text.strip())
    if not src:
        raise ConwaySyntaxError("empty symbol")
    m = re.match(r"[0-9]+\*+", src)
    basis = m.group(0) if m else "6*"
    if basis not in BASIS_VERTICES:
        raise UnknownBasisError("unknown basic polyhedron %r" % basis)
    slots = []
    for i, j in _split_slots(src, m.end() if m else 0):
        seg = src[i:j]
        i += len(seg) - len(seg.lstrip())
        j -= len(seg) - len(seg.rstrip())
        if i >= j:
            slots.append(_ONE)  # an empty slot, or the middle of a ':'
            continue
        p = _Parser(src, i, j)
        slots.append(p.parse_ram())
        p.expect_end()
    if not m and len(slots) == 1:
        return slots[0]  # no top level separator: an algebraic tangle
    n = BASIS_VERTICES[basis]
    if len(slots) > n:
        raise VertexArityError(
            "%d tangles for the %d vertices of %s" % (len(slots), n, basis))
    slots.extend([_ONE] * (n - len(slots)))
    return Poly(basis, tuple(slots))


def mirror_expr(node):
    """Mirror image of a symbol, every crossing switched."""
    if isinstance(node, Seq):
        return Seq(tuple(-t for t in node.terms))
    if isinstance(node, Ram):
        return Ram(tuple(mirror_expr(p) for p in node.parts))
    if isinstance(node, Prod):
        return Prod(tuple(mirror_expr(f) for f in node.factors))
    if isinstance(node, Poly):
        return replace(node, slots=tuple(mirror_expr(s) for s in node.slots))
    raise TypeError(type(node).__name__)


def cf_pair(terms) -> tuple:
    """Slope of the rational tangle "a1 ... an" as a (num, den) pair.

    Computed as the continued fraction an + 1/(a_{n-1} + ... + 1/a1).
    den 0 encodes the infinity tangle.
    """
    p, q = None, None
    for t in terms:
        if p is None:
            p, q = t, 1
        else:
            p, q = t * p + q, p
    if p is None:
        raise ValueError("no terms")
    if q < 0:
        p, q = -p, -q
    elif q == 0:
        p = abs(p)
    return p, q


def tangle_fraction(node) -> tuple:
    """Slope (num, den) of a rational tangle symbol.

    Understands integer sequences, and products of them whose factors
    after the first are single integers.  Raises NotRationalTangleError
    for anything wider than that.
    """
    if isinstance(node, Seq):
        return cf_pair(node.terms)
    if isinstance(node, Prod):
        terms = []
        for f in node.factors:
            # a product adds each factor to the flipped tangle before
            # it, and adding a tangle wider than an integer leaves the
            # rational tangles: "(2 1) (3 4)" builds 2/3 + 13/3
            if not isinstance(f, Seq) or (terms and len(f.terms) > 1):
                raise NotRationalTangleError(repr(node))
            terms.extend(f.terms)
        return cf_pair(terms)
    raise NotRationalTangleError(repr(node))


@dataclass(frozen=True)
class MontesinosSpec:
    """Montesinos link M(e; (a1, b1), ..., (ak, bk)).

    The fraction sum b1/a1 + ... + bk/ak - e classifies the link up to
    the usual cyclic/reversal moves once every bi is reduced mod ai.
    """

    e: int
    branches: tuple


def montesinos_value(spec: MontesinosSpec) -> Fraction:
    return sum((Fraction(b, a) for a, b in spec.branches), Fraction(0)) - spec.e


def montesinos_det(spec: MontesinosSpec) -> int:
    prod = 1
    for a, _ in spec.branches:
        prod *= a
    v = montesinos_value(spec) * prod
    assert v.denominator == 1
    return abs(int(v))


def montesinos_canonical(spec: MontesinosSpec) -> MontesinosSpec:
    """Reduce every branch fraction into (0, 1), folding integers into e.

    An integer branch (b divisible by a) raises NotMontesinosFormError.
    """
    e = spec.e
    branches = []
    for a, b in spec.branches:
        if a < 0:
            a, b = -a, -b
        if a == 0:
            raise NotMontesinosFormError("branch with zero denominator")
        r = b % a
        if r == 0:
            raise NotMontesinosFormError("integer branch, fold it into e")
        e -= (b - r) // a
        branches.append((a, r))
    return MontesinosSpec(e, tuple(branches))


def positive_cf_terms(a, b):
    """All-positive continued fraction expansion of a/b, 0 < b < a."""
    terms = []
    while b:
        terms.append(a // b)
        a, b = b, a % b
    return terms


def montesinos_to_conway(spec: MontesinosSpec):
    """Conway symbol of a Montesinos link, branches as rational parts."""
    canon = montesinos_canonical(spec)
    parts = [Seq(tuple(reversed(positive_cf_terms(a, b))))
             for a, b in canon.branches]
    filler = Seq((-1,)) if canon.e > 0 else _ONE
    parts.extend([filler] * abs(canon.e))
    if len(parts) < 2:
        raise NotMontesinosFormError("need at least two parts")
    return Ram(tuple(parts))


def conway_to_montesinos(node) -> MontesinosSpec:
    """Read a comma join of rational tangles as a Montesinos link."""
    if not isinstance(node, Ram):
        raise NotMontesinosFormError(repr(node))
    e = 0
    branches = []
    for part in node.parts:
        try:
            p, q = tangle_fraction(part)
        except NotRationalTangleError:
            raise NotMontesinosFormError(repr(node))
        if q == 0:
            raise NotMontesinosFormError("infinity part")
        if p in (1, -1) and q == 1:
            e -= p
        elif abs(p) < 2:
            raise NotMontesinosFormError("part of slope %d/%d" % (p, q))
        else:
            branches.append((p, q))
    return MontesinosSpec(e, tuple(branches))
