"""Conway notation for knots and links, LinKnot dialect.

Dialect rules implemented here:

* an integer sequence "a1 a2 ... an" is the rational tangle whose slope
  is the continued fraction an + 1/(a_{n-1} + ... + 1/a1)
* a leading minus mirrors the whole rational factor: "-2 2" is the
  mirror image of "2 2" (every crossing switched), not (-2) then 2
* "," joins tangles after flipping each over the NW-SE diagonal
  (pretzel style); juxtaposition "t1 t2" is Conway's product, flip t1
  over the diagonal and add t2 on the right
* a run of "+" at the end of a comma list appends that many extra
  positive crossings; a run of "-" mirrors that many final parts
* polyhedral symbols are built on the basic polyhedra 6*, 8*, 9*, 10*,
  10**, 10***; vertex tangles are separated by ".", a ":" abbreviates
  ".1.", omitted and trailing slots default to 1, and a symbol whose
  separators appear without a basis prefix lives on 6*

Lowercase letters act as named parameters so that whole families such as
"p,q,r" can be stored symbolically and instantiated with substitute().
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
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


class MissingParameterError(KeyError):
    pass


class NotRationalTangleError(ValueError):
    pass


class NotMontesinosFormError(ValueError):
    pass


@dataclass(frozen=True)
class Param:
    """Symbolic twist count, e.g. the p in the family p,q,r."""

    name: str
    negated: bool = False


@dataclass(frozen=True)
class Seq:
    """Rational tangle given by an integer (or parameter) sequence."""

    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise ValueError("empty twist sequence")


@dataclass(frozen=True)
class Ram:
    """Comma join of tangles, each part flipped over the main diagonal.

    runs[i] records the twist marks written right after part i:
    a positive count k (or a parameter) stands for a run of "+" marks
    and inserts k extra positive crossings at that point of the join,
    a negative count -k stands for a run of "-" marks and mirrors the
    k parts ending at position i.  wrapped records whether the source
    wrapped the join in parentheses; it is display-only and ignored by
    equality.
    """

    parts: tuple
    runs: tuple = None
    wrapped: bool = field(default=False, compare=False)

    def __post_init__(self):
        if self.runs is None:
            object.__setattr__(self, "runs", (0,) * len(self.parts))
        if len(self.runs) != len(self.parts):
            raise ValueError("one run count per part")

    @property
    def trailing_twists(self):
        return self.runs[-1]


@dataclass(frozen=True)
class Prod:
    """Conway product of two or more tangle factors, left associated."""

    factors: tuple


@dataclass(frozen=True)
class Neg:
    """Mirror image of the inner tangle (all crossings switched)."""

    inner: object


@dataclass(frozen=True)
class Poly:
    """Basic polyhedron with a tangle substituted at every vertex."""

    basis: str
    slots: tuple
    basis_shown: bool = field(default=True, compare=False)


BASIS_VERTICES = {"6*": 6, "8*": 8, "9*": 9, "10*": 10, "10**": 10, "10***": 10}

_ONE = Seq((1,))


def _is_term_char(ch):
    return ch.isdigit() or (ch.isalpha() and ch.islower())


class _Parser:
    def __init__(self, text):
        self.text = text
        self.i = 0

    def peek(self, off=0):
        j = self.i + off
        return self.text[j] if j < len(self.text) else ""

    def error(self, message):
        raise ConwaySyntaxError(message, self.i)

    def expect_end(self):
        if self.i != len(self.text):
            self.error("unexpected %r" % self.peek())

    def parse_ram(self):
        parts = [self.parse_prod()]
        runs = [self.parse_marks(1)]
        while self.peek() == ",":
            self.i += 1
            if self.peek() == " ":
                self.i += 1
            parts.append(self.parse_prod())
            runs.append(self.parse_marks(len(parts)))
        if len(parts) == 1 and not runs[0]:
            return parts[0]
        return Ram(tuple(parts), tuple(runs))

    def parse_marks(self, parts_so_far):
        """Twist marks after a part: "+"/"-" runs, "+" may carry a count."""
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
            if count == 1 and _is_term_char(self.peek()):
                return self.parse_term()
            return count
        if count > parts_so_far:
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
                if nxt == "(" or _is_term_char(nxt) or (
                    nxt == "-" and (self.peek(2) == "(" or _is_term_char(self.peek(2)))
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
                factors.append(Neg(self.parse_group()))
                at_start = False
            elif ch == "-" and at_start and _is_term_char(self.peek(1)):
                self.i += 1
                terms.extend(_negate_term(t) for t in self.parse_term_run())
                at_start = False
            elif _is_term_char(ch):
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
        """Space separated integers and parameters up to the next break."""
        run = [self.parse_term()]
        while self.peek() == " " and _is_term_char(self.peek(1)):
            self.i += 1
            run.append(self.parse_term())
        return run

    def parse_term(self):
        ch = self.peek()
        if ch.isdigit():
            j = self.i
            while self.peek().isdigit():
                self.i += 1
            return int(self.text[j:self.i])
        if ch.isalpha() and ch.islower():
            self.i += 1
            if _is_term_char(self.peek()):
                self.error("parameter names are single letters")
            return Param(ch)
        self.error("expected an integer or parameter")

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
        if isinstance(inner, Ram):
            inner = replace(inner, wrapped=True)
        return inner


def _negate_term(t):
    if isinstance(t, Param):
        return replace(t, negated=not t.negated)
    return -t


def _toplevel_separator(text):
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and ch in ".:":
            return True
    return False


def _split_slots(text):
    """Split a polyhedral body on top level dots, expanding ':' to '.1.'."""
    expanded = []
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == ":" and depth == 0:
            expanded.append(".1.")
        else:
            expanded.append(ch)
    segs = []
    cur = []
    depth = 0
    for ch in "".join(expanded):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "." and depth == 0:
            segs.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    segs.append("".join(cur))
    return segs


def parse(text: str):
    """Parse a Conway symbol into its syntax tree."""
    src = re.sub(r"\s+", " ", text.strip())
    if not src:
        raise ConwaySyntaxError("empty symbol")
    basis = None
    shown = False
    rest = src
    m = re.match(r"\d+\*+", src)
    if m:
        basis = m.group(0)
        if basis not in BASIS_VERTICES:
            raise UnknownBasisError("unknown basic polyhedron %r" % basis)
        shown = True
        rest = src[m.end():].strip()
    elif _toplevel_separator(src):
        basis = "6*"
    if basis is None:
        p = _Parser(src)
        node = p.parse_ram()
        p.expect_end()
        return node
    n = BASIS_VERTICES[basis]
    slots = []
    if rest:
        for seg in _split_slots(rest):
            seg = seg.strip()
            if not seg:
                slots.append(_ONE)
                continue
            p = _Parser(seg)
            node = p.parse_ram()
            p.expect_end()
            slots.append(node)
    if len(slots) > n:
        raise VertexArityError(
            "%d tangles for the %d vertices of %s" % (len(slots), n, basis))
    slots.extend([_ONE] * (n - len(slots)))
    return Poly(basis, tuple(slots), shown)


def _lead_run(k):
    return ":" * (k // 2) + ("." if k % 2 else "")


def _mid_run(k):
    return ":" * ((k + 1) // 2) + ("." if k % 2 == 0 else "")


def _abs_term_str(t):
    if isinstance(t, Param):
        return t.name
    return str(abs(t))


def _term_str(t):
    if isinstance(t, Param):
        return ("-" if t.negated else "") + t.name
    return str(t)


def _is_negative_term(t):
    if isinstance(t, Param):
        return t.negated
    return t < 0


def _render_seq(node):
    head = node.terms[0]
    if _is_negative_term(head) and head != -1 and all(
            _is_negative_term(t) or t == 0 for t in node.terms):
        return "-" + " ".join(_abs_term_str(t) for t in node.terms)
    return " ".join(_term_str(t) for t in node.terms)


def _render_run(run):
    if isinstance(run, Param):
        return "+" + _term_str(run)
    if run > 0:
        return "+" * run
    return "-" * -run


def _render_ram_body(node):
    out = []
    for part, run in zip(node.parts, node.runs):
        if isinstance(part, Ram):
            s = "(" + _render_ram_body(part) + ")"
        else:
            s = _render_tangle(part)
        out.append(s + _render_run(run))
    return ",".join(out)


def _render_tangle(node):
    if isinstance(node, Seq):
        return _render_seq(node)
    if isinstance(node, Param):
        return _term_str(node)
    if isinstance(node, Ram):
        body = _render_ram_body(node)
        return "(" + body + ")" if node.wrapped else body
    if isinstance(node, Prod):
        out = []
        for f in node.factors:
            s = _render_tangle(f)
            if isinstance(f, Ram):
                s = "(" + _render_ram_body(f) + ")"
            out.append(s)
        return " ".join(out)
    if isinstance(node, Neg):
        inner = node.inner
        body = _render_ram_body(inner) if isinstance(inner, Ram) else _render_tangle(inner)
        return "-(" + body + ")"
    raise TypeError("cannot render %r here" % type(node).__name__)


def render(node) -> str:
    """Write a syntax tree back as a Conway symbol."""
    if not isinstance(node, Poly):
        return _render_tangle(node)
    slots = list(node.slots)
    last = -1
    for j, s in enumerate(slots):
        if s != _ONE:
            last = j
    if last < 0:
        return node.basis
    out = []
    pending = 0
    started = False
    for s in slots[:last + 1]:
        if s == _ONE:
            pending += 1
            continue
        out.append(_mid_run(pending) if started else _lead_run(pending))
        body = _render_tangle(s)
        if isinstance(s, Ram) and s.wrapped:
            body = "(" + _render_ram_body(s) + ")"
        out.append(body)
        started = True
        pending = 0
    text = "".join(out)
    prefix = node.basis if (node.basis_shown or node.basis != "6*") else ""
    if not prefix and "." not in text and ":" not in text:
        prefix = node.basis
    return prefix + text


def walk(node):
    """Yield node and every descendant."""
    yield node
    if isinstance(node, Seq):
        for t in node.terms:
            if isinstance(t, Param):
                yield t
    elif isinstance(node, Ram):
        for p in node.parts:
            yield from walk(p)
        for r in node.runs:
            if isinstance(r, Param):
                yield r
    elif isinstance(node, Prod):
        for f in node.factors:
            yield from walk(f)
    elif isinstance(node, Neg):
        yield from walk(node.inner)
    elif isinstance(node, Poly):
        for s in node.slots:
            yield from walk(s)


def parameters(node):
    """Sorted names of the parameters appearing in a symbol."""
    return sorted({n.name for n in walk(node) if isinstance(n, Param)})


def substitute(node, values: dict):
    """Replace named parameters by integers throughout a symbol."""

    def term(t):
        if isinstance(t, Param):
            if t.name not in values:
                raise MissingParameterError(t.name)
            v = int(values[t.name])
            return -v if t.negated else v
        return t

    if isinstance(node, Seq):
        return Seq(tuple(term(t) for t in node.terms))
    if isinstance(node, Param):
        return Seq((term(node),))
    if isinstance(node, Ram):
        return replace(node,
                       parts=tuple(substitute(p, values) for p in node.parts),
                       runs=tuple(term(r) for r in node.runs))
    if isinstance(node, Prod):
        return Prod(tuple(substitute(f, values) for f in node.factors))
    if isinstance(node, Neg):
        return Neg(substitute(node.inner, values))
    if isinstance(node, Poly):
        return replace(node, slots=tuple(substitute(s, values) for s in node.slots))
    raise TypeError(type(node).__name__)


def mirror_expr(node):
    """Mirror image of a symbol, every crossing switched."""
    if isinstance(node, Seq):
        return Seq(tuple(_negate_term(t) for t in node.terms))
    if isinstance(node, Param):
        return replace(node, negated=not node.negated)
    if isinstance(node, Ram):
        return Ram(tuple(mirror_expr(p) for p in ram_summands(node)),
                   wrapped=node.wrapped)
    if isinstance(node, Prod):
        return Prod(tuple(mirror_expr(f) for f in node.factors))
    if isinstance(node, Neg):
        return node.inner
    if isinstance(node, Poly):
        return replace(node, slots=tuple(mirror_expr(s) for s in node.slots))
    raise TypeError(type(node).__name__)


def ram_summands(node):
    """Parts of a comma join with the twist marks resolved in place.

    A "-" run of length k mirrors the k parts it follows; a "+" run of
    length k inserts k single positive crossings at its position.
    """
    out = []
    for part, run in zip(node.parts, node.runs):
        out.append(part)
        if isinstance(run, Param):
            raise MissingParameterError(run.name)
        if run < 0:
            for j in range(len(out) + run, len(out)):
                out[j] = mirror_expr(out[j])
        else:
            out.extend([_ONE] * run)
    return out


def normalize(node):
    """Resolve twist marks so that equal tangles compare equal."""
    if isinstance(node, Ram):
        return Ram(tuple(normalize(p) for p in ram_summands(node)))
    if isinstance(node, Prod):
        return Prod(tuple(normalize(f) for f in node.factors))
    if isinstance(node, Neg):
        return Neg(normalize(node.inner))
    if isinstance(node, Poly):
        return replace(node, slots=tuple(normalize(s) for s in node.slots))
    return node


def symbol_crossings(node) -> int:
    """Crossing count of the diagram a symbol denotes (before reduction)."""
    if isinstance(node, Seq):
        total = 0
        for t in node.terms:
            if isinstance(t, Param):
                raise MissingParameterError(t.name)
            total += abs(t)
        return total
    if isinstance(node, Ram):
        total = sum(symbol_crossings(p) for p in node.parts)
        for run in node.runs:
            if isinstance(run, Param):
                raise MissingParameterError(run.name)
            total += max(run, 0)
        return total
    if isinstance(node, Prod):
        return sum(symbol_crossings(f) for f in node.factors)
    if isinstance(node, Neg):
        return symbol_crossings(node.inner)
    if isinstance(node, Poly):
        return sum(symbol_crossings(s) for s in node.slots)
    raise TypeError(type(node).__name__)


def cf_pair(terms) -> tuple:
    """Slope of the rational tangle "a1 ... an" as a (num, den) pair.

    Computed as the continued fraction an + 1/(a_{n-1} + ... + 1/a1).
    den 0 encodes the infinity tangle.
    """
    p, q = None, None
    for t in terms:
        if isinstance(t, Param):
            raise MissingParameterError(t.name)
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

    Understands integer sequences, products of them, and mirrors.
    Raises NotRationalTangleError for anything wider than that.
    """
    if isinstance(node, Seq):
        return cf_pair(node.terms)
    if isinstance(node, Prod):
        terms = []
        for f in node.factors:
            if not isinstance(f, Seq):
                raise NotRationalTangleError(render(node))
            terms.extend(f.terms)
        return cf_pair(terms)
    if isinstance(node, Neg):
        p, q = tangle_fraction(node.inner)
        return -p, q
    raise NotRationalTangleError(render(node))


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
    """Reduce every branch fraction into (0, 1), folding integers into e."""
    e = spec.e
    branches = []
    for a, b in spec.branches:
        if a < 0:
            a, b = -a, -b
        if a == 0:
            raise NotMontesinosFormError("branch with zero denominator")
        r = b % a
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
    parts = []
    for a, b in canon.branches:
        if b == 0:
            raise NotMontesinosFormError("integer branch, fold it into e")
        parts.append(Seq(tuple(reversed(positive_cf_terms(a, b)))))
    filler = Seq((-1,)) if canon.e > 0 else _ONE
    parts.extend([filler] * abs(canon.e))
    if len(parts) < 2:
        raise NotMontesinosFormError("need at least two parts")
    return Ram(tuple(parts))


def conway_to_montesinos(node) -> MontesinosSpec:
    """Read a comma join of rational tangles as a Montesinos link."""
    if not isinstance(node, Ram):
        raise NotMontesinosFormError(render(node))
    e = 0
    branches = []
    for part in ram_summands(node):
        try:
            p, q = tangle_fraction(part)
        except NotRationalTangleError:
            raise NotMontesinosFormError(render(node))
        if q == 0:
            raise NotMontesinosFormError("infinity part")
        if p in (1, -1) and q == 1:
            e -= p
        elif abs(p) < 2:
            raise NotMontesinosFormError("part of slope %d/%d" % (p, q))
        else:
            branches.append((p, q))
    return MontesinosSpec(e, tuple(branches))


@dataclass(frozen=True)
class ReducedSymbol:
    """Reduced form of a comma join p_1,...,p_m,-q of rational tangles.

    Each positive part contributes its last twist number, the single
    negative part contributes the last number of its unmirrored symbol
    plus one, and one-number parts pass through with their sign dropped.
    """

    reduced_p: tuple
    reduced_q: int


def reduce_montesinos(node) -> ReducedSymbol:
    """Collapse each rational part of a Montesinos symbol to one number.

    Expects a comma join whose parts are integer sequences, all of one
    sign each and exactly one of them negative.  The parser writes a
    mirrored part "-2 1" as the all-negative sequence (-2, -1), so the
    sign test is per term.
    """
    if isinstance(node, str):
        node = parse(node)
    if not isinstance(node, Ram):
        raise NotMontesinosFormError(render(node))
    reduced_p = []
    reduced_q = None
    for part in ram_summands(node):
        if not isinstance(part, Seq):
            raise NotMontesinosFormError(render(part))
        for t in part.terms:
            if isinstance(t, Param):
                raise MissingParameterError(t.name)
        last = part.terms[-1]
        if all(t >= 1 for t in part.terms):
            reduced_p.append(last)
        elif all(t <= -1 for t in part.terms):
            if reduced_q is not None:
                raise NotMontesinosFormError("two negative parts")
            reduced_q = -last if len(part.terms) == 1 else -last + 1
        else:
            raise NotMontesinosFormError(render(part))
    if reduced_q is None or not reduced_p:
        raise NotMontesinosFormError(render(node))
    return ReducedSymbol(tuple(reduced_p), reduced_q)
