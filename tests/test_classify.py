"""Classifier tests: adequacy, the Jones sign and gap pattern, the
Montesinos QA predicate, and thickness evidence."""

import importlib.util
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qalinks import classify as C
from qalinks import diagram as D
from qalinks.conway import (
    MontesinosSpec, NotMontesinosFormError, conway_to_montesinos,
    montesinos_to_conway, parse, tangle_fraction,
)
from qalinks.homology import khovanov_f2, thinness
from qalinks.invariants import LaurentPoly, jones
from qalinks.qa import SearchConfig, qa_search
from oracles import mirror
from test_conway import montesinos_specs


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
        assert C.jp_special(jones(d)) == C.jp_special(jones(mirror(d)))

    @given(st.dictionaries(st.integers(-6, 6), st.integers(-3, 3).filter(bool),
                           min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_reversal_invariance(self, coeffs):
        p = LaurentPoly(coeffs)
        assert C.jp_special(p) == C.jp_special(p.reverse())


def montesinos_qa(sym):
    return C.montesinos_qa(conway_to_montesinos(parse(sym)))


def bench_corpus():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("bench_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus


# The three-branch symbols a,b,-c on which the paper's reduction
# (QA iff the last twist of -c, plus one, exceeds the smallest last
# twist of a and b) says QA while the search and the classification say
# no; then random.Random(14).sample(..., 10) of the 63 symbols a,b,-c of
# 6 to 10 crossings whose parts are positive rational symbols with
# first and last term >= 2, a and b unordered.  Each row is
# (qa_search status at node budget 3,000, montesinos_qa, F2 width).
MONTESINOS_TABLE = {
    "3,2 2,-2 2": ("no-certificate", False, 2),
    "2 2,4,-2 2": ("no-certificate", False, 2),
    "3,2 1 2,-2 2": ("no-certificate", False, 2),
    "2 2,2 2,-2 2": ("no-certificate", False, 2),
    "3,2 2,-3 2": ("no-certificate", False, 3),
    "2,2 2,-2": ("no-certificate", False, 3),
    "2,4,-4": ("certified", True, 2),
    "2,2 1 1 2,-2": ("no-certificate", False, 3),
    "2,3 1 2,-2": ("no-certificate", False, 3),
    "2,2 3,-3": ("certified", True, 2),
    "2,3,-2 3": ("certified", True, 2),
    "2,2 2,-3": ("certified", True, 2),
    "2,2 1 2,-2": ("no-certificate", False, 3),
    "2,2 4,-2": ("no-certificate", False, 3),
    "2,4,-3": ("certified", True, 2),
}


class TestMontesinosPredicate:
    """C.montesinos_qa, the classification of QA Montesinos links."""

    # the examples of the deleted thickness predicate, whose thick side
    # was the non-QA side
    @pytest.mark.parametrize("sym,non_qa", [
        ("3,3,-3", True),
        ("2,2,-4", False),
        ("2,2,-2", True),
        ("2 1,2 1,-3", False),
    ])
    def test_spec_examples(self, sym, non_qa):
        assert montesinos_qa(sym) is not non_qa

    # the symbols of the deleted reduction test and the four that check
    # q = 1 and four branches; each agrees with qa_search at budget 3,000
    @pytest.mark.parametrize("sym,want", [
        ("3,3,-3", False),
        ("4,3,-3", False),
        ("2,2,-4", True),
        ("2 2,2 1,-2", True),
        ("-2 1 2,3,3", False),
        ("2 1,2 1,-3", True),
        ("2,5,-1", True),  # 2-bridge, det 3
        ("2,2,2,-1", False),
        ("2,2,2,-3", True),
        ("3,3,3,-3", False),
        ("2,2,2", True),
        ("3,3", True),  # 2-bridge, det 6
        ("-2,-2,3", True),
    ])
    def test_values(self, sym, want):
        assert montesinos_qa(sym) is want

    def test_integer_branch_raises(self):
        for spec in (MontesinosSpec(0, ((3, 1), (3, 1), (2, 4))),
                     MontesinosSpec(1, ((3, 1), (1, 0)))):
            with pytest.raises(NotMontesinosFormError):
                C.montesinos_qa(spec)
            with pytest.raises(NotMontesinosFormError):
                montesinos_to_conway(spec)

    @given(montesinos_specs(), st.integers(0, 3), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_mirror_and_branch_order_invariance(self, spec, shift, flip):
        want = C.montesinos_qa(spec)
        mirrored = MontesinosSpec(-spec.e, tuple((a, -b) for a, b in spec.branches))
        assert C.montesinos_qa(mirrored) is want
        k = shift % len(spec.branches)
        branches = spec.branches[k:] + spec.branches[:k]
        if flip:
            branches = branches[::-1]
        assert C.montesinos_qa(MontesinosSpec(spec.e, branches)) is want

    @pytest.mark.parametrize("sym", sorted(MONTESINOS_TABLE))
    def test_pinned_table(self, sym):
        d = D.build(sym)
        out = qa_search(d, SearchConfig(node_budget=3000))
        width = thinness(khovanov_f2(d), 0).width
        assert (out.status, montesinos_qa(sym), width) == MONTESINOS_TABLE[sym]

    def test_bench_corpus_agrees(self):
        # every pretzel the bench certifies is QA, and every Montesinos
        # negative diagram is not; the last one is a product, no
        # Montesinos symbol
        corpus = bench_corpus()
        for p, q in corpus.PRETZEL_SWEEP:
            row = corpus.pretzel(p, q)
            assert montesinos_qa(row.symbol) is (row.expect == "certified")
        *montesinos, product = corpus.NEGATIVE_DIAGRAMS
        assert not any(montesinos_qa(s) for s in montesinos)
        with pytest.raises(NotMontesinosFormError):
            montesinos_qa(product)


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
