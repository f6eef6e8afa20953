import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracles
from oracles import render, symbol_crossings
from qalinks import conway
from qalinks.conway import (
    ConwaySyntaxError, MontesinosSpec, NotMontesinosFormError,
    NotRationalTangleError, Poly, Prod, Ram, Seq, UnknownBasisError,
    VertexArityError, cf_pair, conway_to_montesinos, mirror_expr,
    montesinos_canonical, montesinos_det, montesinos_to_conway,
    montesinos_value, parse, positive_cf_terms, tangle_fraction,
)
from qalinks.diagram import build
from qalinks.invariants import determinant

# symbols that appear across the working corpus, in the exact source
# styling; in a family's symbol the letters p..t stand for twist counts,
# and "+r" for a run of r "+" marks
CORPUS = [
    "2", "3", "2 2", "3 1 2", "2 1 1 2", "-2 2,2 2,3", "2 1 2,2 1 1,-2 1",
    "2 1 2,-2 2,3", "-2 1 1 1,2 1 1,3", "3,3,2-", "3,3,-3", "4,3,-3",
    "5,3,-3", "-2 1 2,3,3", "(3,-2 1) (2 1,2)", "(2,2+) -(2 1,2)",
    "3,2 1,-2", "2 1 1,2 1,-2", "(3,-2 1) (2,2)", "(-2 1,4) (2,2)",
    ".2.-3 0.2", "6*-3.-2.2 0:2.-1", "6*2.2 1.-2 0.-1.-2", "6*", "8*",
    "8*2:2:2", "10***", ".2.(-2 1,2).2", "-2 2,2 2,4", "-2 2,2 1 2,3",
    "(3,2+) -(2 1,3)", "2:-3 1 0:3 0", "-2.-2.-2 0.2.2.2 0",
    "(-3 1,3) (2 1,2)", "8*2.2 0:-2 1 0", "2 1 1:-2 1 0:2 0",
    "2 1 1,2 2,-2 1 1", "(-2 1,2 1 1) (2,2)", "(-2 1,-4) (2,2)",
    "(2 1,3),2,(2,-2)", "6*2:.(-2 1,3) 0", "(2,2,2+) -(2 1 1,3)",
    "p q,r,s-", "p,q,r,s-", "(p,q) -(r,s)", "p,q,r,s--",
    "p 1,q,r-", "p 1 q,r,s-", "(p,q+) (r,s-)", "(p 1,q) -(r,s)",
    "(p,q+) -(r,s)", ".-(p,q)", "p q,r s,t-", "p 1 1 q,r,s-",
    "p 1 1,q,r-", "p 1,q,r,s--", "p,q,r,s,t-", "p,q,r,s,t--",
    "(p,q,r--) (s,t)", "(p q,r) -(s,t)", "(p,q) r (s,t-)",
    "(p,q,r) (s,t-)", "(p,q,r) -(s,t)", "(p,q+r) (s,t-)",
    "(p 1,q+) (r,s-)", "(p,q) -r (s,t)", "(p,q),r,-(s,t)",
    "(p,q),r,(s,t-)", "p:-q 0:-r 0", "-p 1 0:q 0:r 0", ".-(p,q).r",
    ".-(p,q).r 0", ".-(p,q):r 0", ".-(p,q):r", ".(p,q-) 1",
    "p 1,q 1,r,s--", "(p 1 1,q) -(r 1,s)", ".-(p 1,q).r", ".p.-(q 1,r)",
    "6*-(p 1,q).r 0", "6*p.-(q,r 1)", "(p 1 q,r) -(s,t)",
    "(p,q 1) -(r 1,s 1)", "(p,q,r--) (s,t+)", "-(p 1,q),r,(s,t)",
    "(p 1,q),r,-(s,t)", "(p,q),r 1,-(s,t)", "-(p,q),r,(s,t+)",
    "(p,q) 1,-(r,s),t", "6*-(p 1,q 1)", "6*-(p,q 1 1)", "6*-(p,q 1)",
    "6*-(p,q),-r", "6*(p,q,r--)", "6*p 1:.-(q,r) 0", "6*p:.-(q,r)",
    "6*-(p,q).r 0.s", "6*p.-(q,r).s 0", "6*-(p,q).r 0::s 0",
    "6*p.-(q,r).s", "8*-(p,q) 0", "8*-(p,q)", "10***p::-1.-1.-1.-1:-1",
    "10***::-1.-1.-1.-1.p 0.-1", "p 1 1 1,q,r-", "-p 1 1:q:r",
    "-p 1 1 0:q 0:r 0", "p.q 0.-r.s.t 0", "-p 0:q 1:-r 0",
    "p q:-r 0:-s 0", "p.-q 1.-r 0.s 0", "p.-q.-r 0.s 0", "8*p.-q 0.r",
    "p q,r 1,s-", "9*.-p:.-q", "p q 1 r,s,t-", "p 1 q r,s,t-",
    "(p,q-) (r 1,s 1+)", "-(p q,r) (s,t+)", "(p q,r-) (s,t+)",
    "-(p,q) (r s,t+)", "(p,q-) (r 1 1,s+)", "(p,q-) (r 1,s+t)",
    "(p 1,q-) -1 -1 (r,s)", "(p 1,q) -1 -1 (r,s-)", "(p 1,q) 1 1 -(r,s)",
    "-(p,q) 1 1 (r,s)", "(p,q) 1 1 -(r,s)", "-(p,q) 1 1 (r,s+)",
    "(p 1,q,r) (s,t-)", "(p,q,r+) (s,t-)", "(p,q,r+) -(s,t)",
    "(p,q,r-) (s,t+)", "-(p,q,r) (s,t+)", "(p,q),r 1,(s,t-)",
    "(p,q-),r+,(s,t-)", "(p,q),r+,(s,t-)", "(p,q),-r,-1,(s,t)",
    "(p,q) -1 -1 -1 (r,s)", "(p,q-) 1 1 1 (r,s-)", "(p,q) -1 -1 -1 (r,s-)",
    "(p,q) 1 1 1 -(r,s)", "(p,q) r 1 -(s,t)", "6*-p q.r 0.s",
    "6*-p 1.q.-r", "6*-p.q 0.r", "6*-p.q 1.-r 1", "6*-p.q.-r",
    "6*p.q.r 0.-s 1", "6*p.q.-r 1.s 0", "6*-p 1.q.-r:s",
    "6*p.q.-r.s 0.t", "6*-p 1.q 0.r.s 0", "6*-p.q.-r:s",
    "6*p.q 0.-r.s 0.t", "6*(p,q-)", "6*(p,q-) r", "6*(p,q-),r",
    "6*p.-(q,r) 1", "6*p:.-(q,r) 1 0", "6*p:.(q,r-) 1 0",
    "6*(p,q).-r 0.-s", "6*-(p,q).r.-s", "6*p.(q,r-).s", "8*p.-q 1 0",
    "8*-p 0.-q 0.-r 0", "(p,2+) -(2 1,3)", "(2,2,2+) -(2 1 1,p)",
    "6*p.(2,-2):2 0",
]


VALUES = dict(zip("pqrst", range(2, 7)))


def instance(text):
    """The integer member p, q, r, s, t = 2, ..., 6 of a corpus symbol,
    the symbol the round trip reads; a family's letters do not parse."""
    text = re.sub(r"\+([p-t])", lambda m: "+" * VALUES[m[1]], text)
    return re.sub(r"[p-t]", lambda m: str(VALUES[m[0]]), text)


@pytest.mark.parametrize("text", CORPUS)
def test_corpus_round_trip(text):
    ast = parse(instance(text))
    assert parse(render(ast)) == ast


def test_seq_shapes():
    assert parse("2") == Seq((2,))
    assert parse("2 2") == Seq((2, 2))
    assert parse("-2 2") == Seq((-2, -2))
    assert parse("-3 0") == Seq((-3, 0))
    assert parse("-2 1 0") == Seq((-2, -1, 0))
    assert parse("2 3") == Seq((2, 3))
    assert parse("-2 3") == Seq((-2, -3))


def test_ram_shapes():
    assert parse("2,3") == Ram((Seq((2,)), Seq((3,))))
    assert parse("(2,3)") == parse("2,3")
    assert parse("(2,2+)") == Ram((Seq((2,)), Seq((2,)), Seq((1,))))
    assert parse("(2,3-),4+,(5,6-)") == parse("(2,-3),4,1,(5,-6)")
    assert parse("(2,3-) (4 1,5++++++)") == parse(
        "(2,-3) (4 1,5,1,1,1,1,1,1)")
    # a "-" run counts the parts a "+" run inserted
    assert parse("2+,3--") == parse("2,-1,-3")
    # one part with a mark stays a join, which flips its part
    assert parse("2-") == parse("(2-)") == Ram((Seq((-2,)),))
    assert parse("(2 1)") == Seq((2, 1))


def test_product_shapes():
    t = parse("(2,2+) -(2 1,2)")
    assert isinstance(t, Prod)
    first, second = t.factors
    assert first == Ram((Seq((2,)), Seq((2,)), Seq((1,))))
    assert second == Ram((Seq((-2, -1)), Seq((-2,))))
    assert t == parse("(2,2,1) (-2 1,-2)")
    assert parse("-(2 1) 3") == Prod((Seq((-2, -1)), Seq((3,))))
    # bare integers merge into one rational factor
    assert parse("(2,2) 2 1").factors[1] == Seq((2, 1))
    assert parse("(2,3) -1 -1 (4,5)").factors[1] == Seq((-1, -1))


def test_polyhedral_shapes():
    t = parse(".2.-3 0.2")
    assert t == Poly("6*", (Seq((1,)), Seq((2,)), Seq((-3, 0)), Seq((2,)),
                            Seq((1,)), Seq((1,))))
    assert t == parse("6*.2.-3 0.2")
    t = parse("6*-3.-2.2 0:2.-1")
    assert t.slots == (Seq((-3,)), Seq((-2,)), Seq((2, 0)), Seq((1,)),
                       Seq((2,)), Seq((-1,)))
    assert parse("6*2:2") == parse("6*2.1.2")
    assert parse("8*2:2:2") == parse("8*2.1.2.1.2.1.1.1")
    assert parse(":.2") == parse("6*1.1.1.2")
    assert parse("6*") == parse(".1")
    assert len(parse("10***2::-1.-1.-1.-1:-1").slots) == 10


def test_parse_errors():
    for bad in ["", "2,,3", "(2,2", "2)", "pq", "2,2+-", "2,2---",
                "12*2.2", "6*2.2.2.2.2.2.2", "-", "2 -", "()", "2..2.(2:2)",
                "p", "2,p", "-p 1", "2,2+3", "6*p.2"]:
        with pytest.raises(ConwaySyntaxError):
            parse(bad)
    with pytest.raises(UnknownBasisError):
        parse("7*2.2")
    with pytest.raises(VertexArityError):
        parse("6*2.2.2.2.2.2.2.2")


@pytest.mark.parametrize("text,pos", [
    ("(2,2", 4), ("2,2+3", 4), ("6*2.2.(2", 8), ("6*2.2.2 2)", 9),
    ("  6*2.  2.2 2)", 10), ("2.-3 0.(2", 9),
    # digits are ASCII: str.isdigit would take "²", which int cannot read
    ("2²", 1), ("6*2.²", 4),
])
def test_parse_error_positions(text, pos):
    # pos indexes the symbol with its whitespace stripped and collapsed,
    # slot offsets included
    with pytest.raises(ConwaySyntaxError) as err:
        parse(text)
    assert err.value.pos == pos


def test_cf_pair_table():
    assert cf_pair((2, 2)) == (5, 2)
    assert cf_pair((-2, -2)) == (-5, 2)
    assert cf_pair((2, 0)) == (1, 2)
    assert cf_pair((2, 1, 2)) == (8, 3)
    assert cf_pair((0,)) == (0, 1)
    assert cf_pair((1, -1)) == (0, 1)
    # the infinity tangle comes out with a zero denominator
    assert cf_pair((0, 0)) == (1, 0)


@given(st.lists(st.integers(-9, 9).filter(bool), min_size=1, max_size=6))
def test_cf_pair_matches_nested_fractions(terms):
    p, q = cf_pair(tuple(terms))
    try:
        value = oracles.cf_value(terms)
    except ZeroDivisionError:
        assume(False)
    assert q != 0
    assert value == Fraction(p, q)
    assert math.gcd(abs(p), q) == 1


@given(st.lists(st.integers(1, 9), min_size=1, max_size=6))
def test_cf_pair_mirror_negates(terms):
    p, q = cf_pair(tuple(terms))
    mp, mq = cf_pair(tuple(-t for t in terms))
    assert (mp, mq) == (-p, q)


def test_tangle_fraction_flattens_products():
    assert tangle_fraction(parse("2 1 2")) == cf_pair((2, 1, 2))
    assert tangle_fraction(parse("-(2 1)")) == (-3, 2)
    with pytest.raises(NotRationalTangleError):
        tangle_fraction(parse("2,2"))
    # a factor after the first that is not one integer adds a tangle
    # that the continued fraction of all terms does not describe
    for sym in ("(2 1) 3 4", "2 -(2 1)", "(2 1) (3 4)"):
        with pytest.raises(NotRationalTangleError):
            tangle_fraction(parse(sym))


# a mirrored group inside a product is a sequence, so these read as
# rational tangles
@pytest.mark.parametrize("sym", [
    "-(2 1) 3", "-(3 1) 2", "-(2 2) -1", "(2 1) -(3)", "-(2 1 1) 4",
])
def test_tangle_fraction_reads_mirrored_groups(sym):
    p, q = tangle_fraction(parse(sym))
    assert abs(p) == determinant(build(sym))


def test_conway_to_montesinos_reads_mirrored_groups():
    sym = "-(2 1) 3,3,2"
    spec = conway_to_montesinos(parse(sym))
    assert montesinos_det(spec) == determinant(build(sym))


def test_marks_resolve_at_parse():
    assert parse("3,3,2-") == parse("3,3,-2")
    assert parse("2,2+") == parse("2,2,1")
    assert parse("2,3,4,5--") == parse("2,3,-4,-5")
    assert parse("(2,2++)") == parse("2,2,1,1")
    assert parse("-(2 1,2)") == parse("-2 1,-2")


def test_mirror_expr():
    assert mirror_expr(parse("2 2")) == Seq((-2, -2))
    assert render(mirror_expr(parse("2 1 2,-2 2,3"))) == "-2 1 2,2 2,-3"
    t = parse("(2,2) (3,-2 1)")
    assert mirror_expr(mirror_expr(t)) == t
    # a mirrored group of mixed signs has no spelling without "-( )"
    t = parse("-(2 -1)")
    assert t == Seq((-2, 1))
    assert parse(render(t)) == t
    p = parse("6*2.2 1.-2 0.-1.-2")
    assert parse(render(mirror_expr(p))) == mirror_expr(p)


def test_symbol_crossings():
    assert symbol_crossings(parse("2 2")) == 4
    assert symbol_crossings(parse("3,3,2-")) == 8
    assert symbol_crossings(parse("(2,2+) -(2 1,2)")) == 10
    assert symbol_crossings(parse("6*")) == 6
    assert symbol_crossings(parse("6*2.2 1.-2 0.-1.-2")) == 11
    assert symbol_crossings(parse("(3,-2 1) (2 1,2)")) == 11
    assert symbol_crossings(parse(".2.-3 0.2")) == 10


def test_marks_insert_in_place():
    # marks resolve at their own level: a group keeps its marks inside
    parts = parse("(2,3-),2+,(2,2)").parts
    assert parts == (parse("(2,3-)"), Seq((2,)), Seq((1,)), parse("(2,2)"))
    assert parse("3,3,2-").parts[-1] == Seq((-2,))


# Montesinos forms


def test_montesinos_value_and_det():
    spec = MontesinosSpec(0, ((5, -2), (5, 2), (3, 1)))
    assert montesinos_value(spec) == montesinos_value(
        MontesinosSpec(1, ((5, 3), (5, 2), (3, 1))))
    assert montesinos_det(spec) == 25
    assert montesinos_canonical(spec) == MontesinosSpec(
        1, ((5, 3), (5, 2), (3, 1)))


@pytest.mark.parametrize("text,det", [
    ("-2 2,2 2,3", 25),
    ("2 1 2,2 1 1,-2 1", 37),
    ("2 1 2,-2 2,3", 37),
    ("-2 1 1 1,2 1 1,3", 37),
    ("3,3,-3", 9),
    ("3,2 1,-2", 9),
    ("2 1 1,2 1,-2", 23),
    ("-2 2,2 2,4", 25),
    ("-2 2,2 1 2,3", 37),
])
def test_montesinos_det_fixtures(text, det):
    assert montesinos_det(conway_to_montesinos(parse(text))) == det
    assert oracles.symbol_det(text) == det


def test_conway_to_montesinos_rejects_non_montesinos():
    with pytest.raises(NotMontesinosFormError):
        conway_to_montesinos(parse("2 2"))
    with pytest.raises(NotMontesinosFormError):
        conway_to_montesinos(parse("(2,2) (2,2)"))


@pytest.mark.parametrize("sym", [
    "2 2",            # no comma join
    "(2,2),3,-2",     # non-rational part
])
def test_conway_to_montesinos_rejects_other_shapes(sym):
    with pytest.raises(NotMontesinosFormError):
        conway_to_montesinos(parse(sym))


@st.composite
def montesinos_specs(draw):
    k = draw(st.integers(2, 4))
    branches = []
    for _ in range(k):
        a = draw(st.integers(2, 9))
        b0 = draw(st.integers(1, a - 1))
        assume(math.gcd(a, b0) == 1)
        b = b0 + a * draw(st.integers(-2, 2))
        branches.append((a, b))
    return MontesinosSpec(draw(st.integers(-3, 3)), tuple(branches))


@given(montesinos_specs())
def test_montesinos_round_trip(spec):
    sym = montesinos_to_conway(spec)
    back = conway_to_montesinos(sym)
    assert montesinos_canonical(back) == montesinos_canonical(spec)
    assert montesinos_value(back) == montesinos_value(spec)


@given(montesinos_specs())
def test_montesinos_det_matches_pair_calculus(spec):
    sym = montesinos_to_conway(spec)
    assert oracles.symbol_det(render(sym)) == montesinos_det(spec)


@given(st.integers(2, 60), st.integers(1, 59))
def test_positive_cf_expansion_inverts(a, b):
    assume(b < a and math.gcd(a, b) == 1)
    terms = positive_cf_terms(a, b)
    assert all(t >= 1 for t in terms)
    assert cf_pair(tuple(reversed(terms))) == (a, b)


# property: parse(render(ast)) == ast over generated trees

_terms = st.integers(1, 9)


@st.composite
def seq_nodes(draw):
    terms = draw(st.lists(_terms, min_size=1, max_size=4))
    if draw(st.booleans()):
        terms = terms + [0]
    # a "-" negates the rest of its run, so a sequence that parse makes
    # changes sign at most once: positive terms, then negative ones, or
    # the mirror of that
    k = draw(st.integers(0, len(terms)))
    terms = terms[:k] + [-t for t in terms[k:]]
    if draw(st.booleans()):
        terms = [-t for t in terms]
    return Seq(tuple(terms))


def ram_nodes(parts_strategy):
    return st.lists(parts_strategy, min_size=1, max_size=4).map(
        lambda parts: Ram(tuple(parts)))


@st.composite
def prod_nodes(draw, groups, seqs):
    factors = [draw(groups)]
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            factors.append(draw(seqs))
            factors.append(draw(groups))
        else:
            factors.append(draw(groups))
    return Prod(tuple(factors))


def tangle_nodes():
    seqs = seq_nodes()
    rams0 = ram_nodes(seqs)
    rams1 = ram_nodes(st.one_of(seqs, rams0, prod_nodes(rams0, seqs)))
    return st.one_of(seqs, rams1, prod_nodes(rams1, seqs))


@st.composite
def poly_nodes(draw):
    basis = draw(st.sampled_from(sorted(conway.BASIS_VERTICES)))
    n = conway.BASIS_VERTICES[basis]
    k = draw(st.integers(0, n))
    slots = [draw(tangle_nodes()) for _ in range(k)]
    slots += [Seq((1,))] * (n - k)
    return Poly(basis, tuple(slots))


@given(st.one_of(tangle_nodes(), poly_nodes()))
def test_render_parse_round_trip(node):
    text = render(node)
    assert parse(text) == node


@given(st.lists(tangle_nodes(), min_size=1, max_size=4), st.data())
def test_marks_resolve_where_they_stand(parts, data):
    """k "+" after part i read as k parts "1" inserted there; k "-"
    read as the k parts up to i put through mirror_expr."""
    i = data.draw(st.integers(0, len(parts) - 1))
    k = data.draw(st.integers(1, 3))
    texts = [render(p) if isinstance(p, Seq) else "(%s)" % render(p)
             for p in parts]

    def join(marks, inserted=()):
        return parse(",".join(texts[:i] + [texts[i] + marks]
                              + list(inserted) + texts[i + 1:]))

    assert join("+" * k) == join("", ["1"] * k)
    assert join("+" * k) == Ram(tuple(parts[:i + 1]) + (Seq((1,)),) * k
                                + tuple(parts[i + 1:]))
    k = min(k, i + 1)
    mirrored = (parts[:i + 1 - k]
                + [mirror_expr(p) for p in parts[i + 1 - k:i + 1]]
                + parts[i + 1:])
    assert join("-" * k) == Ram(tuple(mirrored))
