"""Classifier tests: adequacy, Jones pattern, predicates, conditions."""

from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qalinks import classify as C
from qalinks import diagram as D
from qalinks.conway import MissingParameterError, parse, reduce_montesinos, tangle_fraction
from qalinks.homology import khovanov_f2
from qalinks.invariants import LaurentPoly, jones


class TestAdequacy:
    @pytest.mark.parametrize("sym,label", [
        ("2 2", "adequate"),
        ("3", "adequate"),
        ("2", "adequate"),
        ("3,3,2-", "semi-adequate"),
        ("(2,2) -(2,2)", "adequate"),
        ("3,3,-3", "semi-adequate"),
        ("2 2,2 1,-2", "semi-adequate"),
    ])
    def test_labels(self, sym, label):
        assert C.adequacy(D.build(sym)).label == label

    @pytest.mark.parametrize("sym", [
        "2 2", "3", "2", "3,3,2-", "(2,2) -(2,2)", "3,3,-3",
        "(2,2+) -(2 1,2)", ".2.(-2 1,2).2", "6*2.2 1.-2 0.-1.-2",
        "(3,-2 1) (2 1,2)", "8*-2 0.-2 0.-2 0",
    ])
    def test_against_circle_count_oracle(self, sym):
        # Flipping one smoothing in an extreme state splits a circle
        # (count +1) exactly when that crossing self-touches, and
        # merges two (count -1) otherwise.
        d = D.build(sym)
        all_b = (1 << d.n) - 1
        base_a = len(D.state_circles(d, 0))
        base_b = len(D.state_circles(d, all_b))
        plus = all(
            len(D.state_circles(d, 1 << c)) == base_a - 1
            for c in range(d.n))
        minus = all(
            len(D.state_circles(d, all_b ^ 1 << c)) == base_b - 1
            for c in range(d.n))
        rep = C.adequacy(d)
        assert (rep.plus_adequate, rep.minus_adequate) == (plus, minus)

    def test_reduced_alternating_is_adequate(self):
        for sym in ["3", "2 2", "5", "2 1 1 1 1", "2 2 2 2", "3 1 3"]:
            d = D.simplify(D.build(sym))
            assert D.is_alternating(d)
            assert C.adequacy(d).label == "adequate", sym

    def test_label_is_function_of_booleans(self):
        assert C.AdequacyReport(True, True).label == "adequate"
        assert C.AdequacyReport(True, False).label == "semi-adequate"
        assert C.AdequacyReport(False, True).label == "semi-adequate"
        assert C.AdequacyReport(False, False).label == "inadequate"

    def test_kinked_diagram_is_inadequate_on_one_side(self):
        # A reducible crossing self-touches in one extreme state.
        d = D.from_braid([1, 1, 1, 1, -2], 3)
        rep = C.adequacy(d)
        assert not (rep.plus_adequate and rep.minus_adequate)


class TestJpPattern:
    def test_unknot(self):
        rep = C.jp_special(jones(D.build("1")))
        assert rep == C.JpReport(True, False) and not rep.jp_special

    def test_trefoil_has_gaps(self):
        rep = C.jp_special(jones(D.build("3")))
        assert rep.has_gaps and rep.jp_special

    def test_figure_eight_is_plain(self):
        rep = C.jp_special(jones(D.build("2 2")))
        assert rep.alternating_signs and not rep.has_gaps
        assert not rep.jp_special

    def test_hopf_breaks_sign_alternation(self):
        rep = C.jp_special(jones(D.build("2")))
        assert not rep.alternating_signs and rep.jp_special

    def test_adequate_table_member(self):
        rep = C.jp_special(jones(D.build("(2,2) -(2,2)")))
        assert rep.jp_special

    def test_zero_polynomial_rejected(self):
        with pytest.raises(C.ZeroPolynomial):
            C.jp_special(LaurentPoly())

    @pytest.mark.parametrize("sym", ["3", "2 2", "2", "3,3,-3", "(2,2) -(2,2)"])
    def test_mirror_invariance(self, sym):
        d = D.build(sym)
        assert C.jp_special(jones(d)) == C.jp_special(jones(D.mirror(d)))

    @given(st.dictionaries(st.integers(-6, 6), st.integers(-3, 3).filter(bool),
                           min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_reversal_invariance(self, coeffs):
        p = LaurentPoly(coeffs)
        assert C.jp_special(p) == C.jp_special(p.reverse())


class TestMontesinosPredicate:
    @pytest.mark.parametrize("sym,want", [
        ("3,3,-3", True),
        ("2,2,-4", False),
        ("2,2,-2", True),
        ("2 1,2 1,-3", False),
    ])
    def test_spec_examples(self, sym, want):
        assert C.montesinos_thick_predicate(reduce_montesinos(sym)) is want


class TestFamilyConditions:
    @pytest.mark.parametrize("cond,assignment,want", [
        ("min(q,r)>p", dict(p=2, q=3, r=3), True),
        ("max(p,q)<=min(r,s)", dict(p=2, q=2, r=2, s=2), True),
        ("min(p,q,r)>=3", dict(p=2, q=3, r=3), False),
        ("p>q>=2", dict(p=3, q=2), True),
        ("p>q>=2", dict(p=2, q=2), False),
        ("p=2", dict(p=2), True),
        ("p=2", dict(p=3), False),
        ("q>r and s>r", dict(q=3, r=2, s=3), True),
        ("q>r and s>r", dict(q=3, r=3, s=4), False),
        ("p+q>=5", dict(p=2, q=3), True),
    ])
    def test_evaluation(self, cond, assignment, want):
        assert C.eval_family_condition(cond, assignment) is want

    def test_missing_parameter(self):
        with pytest.raises(MissingParameterError):
            C.eval_family_condition("min(q,r)>p", dict(p=2, q=3))

    @pytest.mark.parametrize("cond", [
        "__import__('os')", "p ** q", "(lambda: 1)()", "p if q else r",
        "abs(p)>1", "'x'=='x'",
    ])
    def test_rejects_everything_else(self, cond):
        with pytest.raises(ValueError):
            C.eval_family_condition(cond, dict(p=2, q=2, r=2))


class TestThicknessEvidence:
    def test_adequate_non_alternating_wins(self):
        d = D.build("(2,2) -(2,2)")
        ev = C.thickness_evidence(d, C.adequacy(d), D.is_alternating(d))
        assert ev.kind == "adequate-non-alternating" and ev.thick

    def test_computed_width_thin(self):
        d = D.build("2 2")
        ev = C.thickness_evidence(d, C.adequacy(d), D.is_alternating(d),
                                  ranks=khovanov_f2(d))
        assert ev == C.ThicknessEvidence("computed-width", 2)
        assert ev.thick is False

    def test_computed_width_thick(self):
        d = D.build("3,3,2-")
        ev = C.thickness_evidence(d, C.adequacy(d), D.is_alternating(d),
                                  ranks=khovanov_f2(d))
        assert ev == C.ThicknessEvidence("computed-width", 3)
        assert ev.thick is True

    def test_torus_flag(self):
        d = D.build("3,3,2-")
        ev = C.thickness_evidence(d, C.adequacy(d), D.is_alternating(d),
                                  torus=True)
        assert ev.kind == "non-alternating-torus" and ev.thick

    def test_unknown(self):
        d = D.build("2 2")
        ev = C.thickness_evidence(d, C.adequacy(d), D.is_alternating(d))
        assert ev.kind == "unknown" and ev.thick is None


def compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


class TestTorusSweep:
    def test_jp_special_marks_exactly_the_two_strand_torus_links(self):
        # Rational links with <= 8 crossings: the special pattern
        # appears exactly on the links of fraction p/q with q = +-1
        # mod p, the closed two-strand torus family.
        for n in range(1, 9):
            for comp in compositions(n):
                sym = " ".join(map(str, comp))
                p, q = tangle_fraction(parse(sym))
                g = gcd(p, q)
                p, q = p // g, q // g
                is_torus = p >= 2 and q % p in (1 % p, (-1) % p)
                jp = C.jp_special(jones(D.build(sym)))
                assert jp.jp_special == is_torus, sym
