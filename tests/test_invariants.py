"""Invariant tests: Laurent ring, bracket, Jones, determinant, signature.

Multi-component conventions exercised here: the Jones polynomial of a
link diagram is computed from a traced orientation, so for two or more
components it is pinned only up to a factor q^(6m) (reversing a
component shifts by six in the doubled exponent). Comparisons on links
allow that gauge; knot values are exact.
"""

import gc
import importlib.util
import itertools
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from qalinks import diagram as D
from qalinks import invariants as I
from qalinks import qa as Q
from qalinks.invariants import LaurentPoly

from oracles import (
    OracleUnsupported, checkerboard_goeritz, cube_bracket,
    fraction_sym_signature, minor_smoothing_determinants, mirror,
    symbol_det,
)
from test_diagram import BATTERY, SYMBOLS, mixed_closures, shuffled
from test_qa import NEGATIVE_DIAGRAMS


def build(s):
    return D.build(s)


def jones_of(s):
    return I.jones(build(s))


def shift_equal(a, b, step=6, span=8):
    return any(a == b.shift(step * m) for m in range(-span, span + 1))


def jones_at_minus_one_squared(v):
    """|V(-1)|^2 for V in the doubled exponent: q = i turns q^2 into
    -1; with uniform exponent parity the sum lands in one Gaussian
    axis."""
    re = sum(c if e % 4 == 0 else -c for e, c in v.c.items() if e % 2 == 0)
    im = sum(c if e % 4 == 1 else -c for e, c in v.c.items() if e % 2 == 1)
    return re * re + im * im


def invariance_braids():
    """The seeded braid closures behind the benchmark's
    invariance_violations count, as perfbench/corpus.py draws them."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("bench_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return [D.from_braid(row.word, row.strands)
            for row in corpus.invariance_braids()]


KNOT_SYMBOLS = [s for s in SYMBOLS if D.components(build(s)) == 1]
LINK_SYMBOLS = [s for s in SYMBOLS if D.components(build(s)) > 1]


class TestLaurentPoly:
    def test_zero_terms_collapse(self):
        assert LaurentPoly({3: 0}) == LaurentPoly()
        assert not LaurentPoly([(1, 1), (1, -1)])
        assert LaurentPoly({0: 5}) == 5

    def test_arithmetic(self):
        x = LaurentPoly.term(1, 1)
        p = x * x - 2 * x + 1
        assert p.coeff(2) == 1 and p.coeff(1) == -2 and p.coeff(0) == 1
        assert (x - 1) * (x - 1) == p
        assert p - p == LaurentPoly()

    def test_pow(self):
        x = LaurentPoly.term(1, 1)
        assert (x + 1) ** 3 == x ** 3 + 3 * x * x + 3 * x + 1
        assert (x + 1) ** 0 == 1
        with pytest.raises(ValueError):
            (x + 1) ** -1

    def test_shift_reverse(self):
        p = LaurentPoly({2: 3, -1: 4})
        assert p.shift(2) == LaurentPoly({4: 3, 1: 4})
        assert p.reverse() == LaurentPoly({-2: 3, 1: 4})
        assert p.reverse().reverse() == p

    def test_format(self):
        p = LaurentPoly({2: -1, 0: 3, -1: 1})
        assert p.format("q") == "-q^2 + 3 + q^-1"
        assert str(LaurentPoly()) == "0"

    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-3, 3)),
                    max_size=6),
           st.lists(st.tuples(st.integers(-4, 4), st.integers(-3, 3)),
                    max_size=6))
    def test_mul_distributes(self, a, b):
        p, q = LaurentPoly(a), LaurentPoly(b)
        r = LaurentPoly({1: 1, 0: -2})
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p


class TestBracket:
    def test_single_kinks(self):
        assert I.bracket(build("1")) == LaurentPoly({-3: -1})
        assert I.bracket(build("-1")) == LaurentPoly({3: -1})

    def test_two_circles_give_delta(self):
        assert I.bracket(build("0")) == LaurentPoly({2: -1, -2: -1})

    def test_relabeling_invariance(self):
        for s in ("2 2", "3,3,-3"):
            d = build(s)
            assert I.bracket(shuffled(d, 7)) == I.bracket(d)

    def test_empty_link_has_no_normalized_bracket(self):
        # the normalization divides by one circle, and there is none
        empty = D.LinkDiagram(0, [], 0)
        for f in (I.bracket, I.jones):
            with pytest.raises(D.DisconnectedDiagramError, match="empty link"):
                f(empty)
        assert I.jones(D.LinkDiagram(0, [], 1)) == LaurentPoly({0: 1})

    def test_twenty_five_crossings_match_determinant(self):
        # 2^25 states would take hours; the scan keeps few open ends
        d = build("5 5 5 5 5")
        assert d.n == 25
        start = time.perf_counter()
        v = I.jones(d)
        assert time.perf_counter() - start < 1.0
        assert jones_at_minus_one_squared(v) == I.determinant(d) ** 2


class TestBracketAgainstCube:
    """The planar scan equals the 2^n state sum exactly."""

    @pytest.mark.parametrize("sym", list(dict.fromkeys(
        [s for s in SYMBOLS if build(s).n <= 14] + BATTERY)))
    def test_symbols(self, sym):
        d = build(sym)
        assert I.bracket(d) == cube_bracket(d)

    def test_invariance_braids_and_their_simplify(self):
        braids = invariance_braids()
        assert len(braids) == 76
        for d in braids:
            for e in (d, D.simplify(d)):
                assert I.bracket(e) == cube_bracket(e)

    @pytest.mark.parametrize("code", ["|1", "|2", "|3"])
    def test_free_loops(self, code):
        d = D.from_code(code)
        assert I.bracket(d) == cube_bracket(d)

    def test_closures(self):
        closures = mixed_closures(13, 120, max_strands=5)
        assert any(D.components(d) > 1 and not d.loops for d in closures)
        assert any(d.loops for d in closures)
        assert any(len(D.graph_components(d)) > 1 for d in closures)
        for d in closures:
            assert I.bracket(d) == cube_bracket(d)


class TestJones:
    def test_unknot_is_one(self):
        assert jones_of("1") == 1
        assert jones_of("-1") == 1

    def test_trefoils(self):
        left = jones_of("3")
        assert left == LaurentPoly({-8: -1, -6: 1, -2: 1})
        assert jones_of("-3") == left.reverse()

    def test_figure_eight_amphichiral(self):
        v = jones_of("2 2")
        assert v == LaurentPoly({-4: 1, -2: -1, 0: 1, 2: -1, 4: 1})
        assert v == v.reverse()

    def test_torus_five(self):
        assert jones_of("5") == LaurentPoly(
            {-14: -1, -12: 1, -10: -1, -8: 1, -4: 1})

    def test_hopf(self):
        assert jones_of("2") == LaurentPoly({-5: -1, -1: -1})

    def test_two_component_unlink(self):
        assert jones_of("0") == LaurentPoly({1: -1, -1: -1})

    @pytest.mark.parametrize("sym", KNOT_SYMBOLS)
    def test_mirror_reverses_knot_jones(self, sym):
        d = build(sym)
        assert I.jones(mirror(d)) == I.jones(d).reverse()

    @pytest.mark.parametrize("sym", LINK_SYMBOLS)
    def test_mirror_reverses_link_jones_up_to_gauge(self, sym):
        d = build(sym)
        assert shift_equal(I.jones(mirror(d)), I.jones(d).reverse())

    @pytest.mark.parametrize("sym", KNOT_SYMBOLS + LINK_SYMBOLS)
    def test_exponent_parity_tracks_components(self, sym):
        d = build(sym)
        par = (D.components(d) - 1) % 2
        assert all(e % 2 == par for e in I.jones(d).exponents())

    @pytest.mark.parametrize("sym", KNOT_SYMBOLS + LINK_SYMBOLS)
    def test_value_at_minus_one_is_determinant(self, sym):
        d = build(sym)
        assert jones_at_minus_one_squared(I.jones(d)) == I.determinant(d) ** 2

    def test_equal_polynomials_are_shared_while_held(self):
        # rows kept side by side hold one copy of each Jones polynomial,
        # and one that no caller holds is let go
        v = I.jones(build("3 1 4 1 5"))
        assert I.jones(mirror(mirror(build("3 1 4 1 5")))) is v
        key = tuple(sorted(v.c.items()))
        assert key in I._JONES
        del v
        gc.collect()
        assert key not in I._JONES


class TestDeterminant:
    @pytest.mark.parametrize("sym", SYMBOLS)
    def test_against_series_parallel_oracle(self, sym):
        # polyhedral symbols have no series-parallel oracle; for them
        # det^2 = |V(-1)|^2, from a Jones polynomial that shares no code
        # with the Goeritz matrix and that TestBracketAgainstCube checks
        # against the cube state sum
        d = build(sym)
        try:
            want = symbol_det(sym)
        except OracleUnsupported:
            assert I.determinant(d) ** 2 == \
                jones_at_minus_one_squared(I.jones(d))
            return
        assert I.determinant(d) == want

    def test_known_values(self):
        for sym, want in [("3", 3), ("2 2", 5), ("2", 2), ("3,3,-3", 9),
                          ("5,3,-3", 9), ("-2 1 2,3,3", 21),
                          ("-2 2,2 2,3", 25), ("-2 2,2 2,4", 25),
                          ("-2 2,2 1 2,3", 37)]:
            assert I.determinant(build(sym)) == want

    @pytest.mark.parametrize("sym", SYMBOLS)
    def test_mirror_invariance(self, sym):
        d = build(sym)
        assert I.determinant(mirror(d)) == I.determinant(d)

    def test_split_unlink_vanishes(self):
        assert I.determinant(build("0")) == 0

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=5),
           st.booleans())
    def test_rational_tangle_numerator(self, terms, neg):
        from oracles import cf_value
        if neg:
            terms = [-t for t in terms]
        sym = " ".join(str(t) for t in terms)
        value = cf_value(list(reversed(terms)))
        assert I.determinant(build(sym)) == abs(value.numerator)


def leibniz_det(m):
    total = 0
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i in range(len(m))
                         for j in range(i + 1, len(m)))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def random_matrices(seed):
    """Seeded integer matrices up to 6x6, with singular ones and ones
    whose leading pivot is zero."""
    rng = random.Random(seed)
    out = []
    for n in range(7):
        for _ in range(12):
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            out.append(m)
            if n >= 2:
                z = [row[:] for row in m]
                z[0][0] = 0
                out.append(z)
                s = [row[:] for row in m]
                i, j = rng.sample(range(n), 2)
                s[j] = [a + 2 * b for a, b in zip(s[j], s[i])]
                s[i] = [-3 * a for a in s[j]]
                out.append(s)
    return out


class TestIntDet:
    """Fraction-free determinants: the adjugate pass on any square
    matrix, and the symmetric reduction on the symmetric matrices it
    is given."""

    MATRICES = random_matrices(5)

    def test_corpus_has_singular_and_zero_pivot_cases(self):
        big = [m for m in self.MATRICES if len(m) >= 2]
        assert sum(leibniz_det(m) == 0 for m in big) >= 20
        assert sum(m[0][0] == 0 and leibniz_det(m) != 0 for m in big) >= 10

    def test_matches_leibniz(self):
        symmetric = [m for m, _ in random_symmetric(23)]
        # m + m^T of the square corpus, zero leading pivots kept
        symmetric += [[[a + b for a, b in zip(row, col)]
                       for row, col in zip(m, zip(*m))]
                      for m in self.MATRICES]
        for m in symmetric:
            assert I._sym_reduce(m)[1] == leibniz_det(m), m

    def test_leaves_input_alone(self):
        m = [[0, 2], [2, 1]]
        assert I._sym_reduce(m) == (0, -4)
        assert m == [[0, 2], [2, 1]]

    def test_adjugate_matches_cofactors(self):
        for m in self.MATRICES:
            det, adj = I._det_adj(m)
            assert det == leibniz_det(m), m
            if det == 0:
                assert adj is None, m
                continue
            n = len(m)
            # adj[i][j] is the (j, i) cofactor
            want = [[(-1) ** (i + j) * leibniz_det(
                [[m[r][c] for c in range(n) if c != i]
                 for r in range(n) if r != j]) for j in range(n)]
                for i in range(n)]
            assert adj == want, m


def braid_closures(seed, count):
    """Seeded 2-4-strand braid closures after simplify, links included."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        strands = rng.choice((2, 3, 4))
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(2, 10))]
        out.append(D.simplify(D.from_braid(word, strands)))
    return out


def search_nodes():
    """The canonical representatives qa_search works on for
    NEGATIVE_DIAGRAMS and 6*2.p 1.-2 0.-1.-2 for p = 2, 3, one per
    code, with crossings."""
    nodes, real = {}, Q.relabel

    def spy(d, labels):
        rep = real(d, labels)
        nodes[D.canonical_code(rep)] = rep
        return rep

    Q.relabel = spy
    try:
        for sym in NEGATIVE_DIAGRAMS + ["6*2.%d 1.-2 0.-1.-2" % p
                                        for p in (2, 3)]:
            Q.qa_search(build(sym))
    finally:
        Q.relabel = real
    return [d for d in nodes.values() if d.n]


class TestSmoothingDeterminants:
    CLOSURES = [d for d in braid_closures(11, 120) if d.n]
    NODES = search_nodes()

    def check(self, d):
        det, got = I.smoothing_determinants(d)
        assert det == I.determinant(d)
        assert got == minor_smoothing_determinants(d)
        assert len(got) == d.n
        for c in range(d.n):
            want = (I.determinant(D.smooth(d, c, "A")),
                    I.determinant(D.smooth(d, c, "B")))
            assert got[c] == want, (D.canonical_code(d), c)

    def test_braid_closures(self):
        assert any(D.components(d) > 1 for d in self.CLOSURES)
        for d in self.CLOSURES:
            self.check(d)

    @pytest.mark.parametrize("sym", SYMBOLS)
    def test_symbols(self, sym):
        # includes 5,3,-3, 2 1 1:-2 1 0:2 0 and 6*2.2 1.-2 0.-1.-2
        self.check(build(sym))

    def test_search_nodes(self):
        assert len(self.NODES) > 400
        for d in self.NODES:
            self.check(d)

    @staticmethod
    def color(d):
        """The color with fewer faces, ties to color 0."""
        sizes = [len(I._goeritz(d, color)[0]) for color in (0, 1)]
        return int(sizes[1] < sizes[0])

    def test_corpus_reaches_every_branch(self):
        # a singular reduced matrix, a loop edge, and edges at face 0,
        # whose row the reduced matrix drops, on each color that
        # smoothing_determinants builds on; 2,2,-1 and the mirrored
        # kink bring a singular matrix and a loop edge to color 1
        named = [build("2,2,-1"), mirror(D.from_braid([1, 1, 1, 2], 3))]
        ds = self.CLOSURES + [build(s) for s in SYMBOLS] + self.NODES + named
        connected = [d for d in ds
                     if not d.loops and len(D.graph_components(d)) == 1]
        for d in connected:
            assert I._goeritz(d, None) == I._goeritz(d, self.color(d))
        for color in (0, 1):
            picked = [d for d in connected if self.color(d) == color]
            rows = [r for d in picked for r in I._goeritz(d, color)[2]]
            assert sum(I.determinant(d) == 0 for d in picked) >= 1
            assert sum(i == j for i, j in rows) >= 1
            assert sum(i != j and 0 in (i, j) for i, j in rows) >= 1
        assert [self.color(d) for d in named] == [1, 1]
        for d in named:
            self.check(d)

    def test_unknot_and_unlinks(self):
        assert I.smoothing_determinants(D.from_code("|1")) == (1, [])
        assert I.smoothing_determinants(D.from_code("|2")) == (0, [])

    def test_nugatory_crossing(self):
        # a kink is a loop edge of one Tait graph and a bridge of the
        # other: one smoothing splits off a circle, the other keeps det
        kinked = D.from_braid([1, 1, 1, 2], 3)
        ds = [build("1"), build("-1"), kinked, mirror(kinked)]
        loop_edges = 0
        for d in ds:
            _, _, rows = I._goeritz(d, 0)
            loop_edges += sum(i == j for i, j in rows)
            self.check(d)
            det, pairs = I.smoothing_determinants(d)
            assert sorted(pairs[-1]) == [0, det]
        assert loop_edges >= 2

    def test_split_diagrams_give_zeros(self):
        for d in (D.from_braid([1, 1, 3, 3], 4), D.from_braid([1, 1, 1], 3)):
            assert I.determinant(d) == 0
            assert I.smoothing_determinants(d) == (0, [(0, 0)] * d.n)
            self.check(d)


class TestGoeritzAgainstCheckerboard:
    """Corner alternation colors the faces exactly as a search over the
    face adjacency does, so the matrices, and signature, are the same."""

    @pytest.mark.parametrize("sym", SYMBOLS)
    def test_symbols(self, sym):
        d = build(sym)
        for color in (0, 1):
            assert I._goeritz(d, color) == checkerboard_goeritz(d, color)

    def test_closures_and_search_nodes(self):
        ds = TestSmoothingDeterminants.CLOSURES + TestSmoothingDeterminants.NODES
        for d in ds:
            if d.loops or len(D.graph_components(d)) > 1:
                with pytest.raises(D.DisconnectedDiagramError):
                    I._goeritz(d, 0)
                continue
            for color in (0, 1):
                assert I._goeritz(d, color) == checkerboard_goeritz(d, color)


class TestSignature:
    def test_torus_values(self):
        for sym, want in [("3", 2), ("5", 4), ("7", 6), ("2", 1), ("4", 3)]:
            assert I.signature(build(sym)) == want

    def test_flat_examples(self):
        assert I.signature(build("2 2")) == 0
        assert I.signature(build("3,3,-3")) == 0

    @pytest.mark.parametrize("sym", [s for s in SYMBOLS
                                     if D.components(build(s)) == 1])
    def test_mirror_antisymmetry_for_knots(self, sym):
        d = build(sym)
        assert I.signature(mirror(d)) == -I.signature(d)

    @pytest.mark.parametrize("sym", SYMBOLS)
    def test_both_colors_agree(self, sym):
        d = build(sym)
        assert I._signature_colored(d, 0) == I._signature_colored(d, 1)

    @pytest.mark.parametrize("sym", [s for s in SYMBOLS
                                     if D.components(build(s)) == 1])
    def test_mod_four_tracks_determinant(self, sym):
        # classical congruence for knots: det 1 mod 4 forces signature
        # 0 mod 4, det 3 mod 4 forces signature 2 mod 4
        d = build(sym)
        det, sig = I.determinant(d), I.signature(d)
        assert det % 2 == 1 and sig % 2 == 0
        assert (det % 4 == 1) == (sig % 4 == 0)

    def test_split_diagram_rejected(self):
        with pytest.raises(D.DisconnectedDiagramError):
            I.signature(build("0"))


def random_symmetric(seed):
    """Seeded symmetric integer matrices up to 7x7, some with their
    signature: plain draws; the same with the diagonal zeroed; the
    border [[a, a w^T], [a w, Z + a w w^T]] of a zero-diagonal Z, whose
    Schur complement after the pivot a is Z, so a hyperbolic pair
    follows a pivot other than 1; and U^T B U for a unit upper
    triangular U and a block diagonal B of nonzero entries, hyperbolic
    pairs [[0, b], [b, 0]] and zeros (singular), with B's signature."""
    rng = random.Random(seed)
    out = []
    for n in range(8):
        for _ in range(10):
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    m[i][j] = m[j][i] = rng.randint(-3, 3)
            out.append((m, None))
            z = [[0 if i == j else x for j, x in enumerate(row)]
                 for i, row in enumerate(m)]
            out.append((z, None))
            if n >= 3:
                a = rng.choice((-3, -2, 2, 3))
                w = [rng.randint(-2, 2) for _ in range(n - 1)]
                out.append(([[a] + [a * x for x in w]]
                            + [[a * y] + [z[i][j] + a * y * x
                                          for j, x in enumerate(w)]
                               for i, y in enumerate(w)], None))
            b, sig = [[0] * n for _ in range(n)], 0
            i = 0
            while i < n:
                kind = rng.choice("dhz") if i + 1 < n else rng.choice("dz")
                if kind == "d":
                    b[i][i] = rng.choice((-3, -2, -1, 1, 2, 3))
                    sig += 1 if b[i][i] > 0 else -1
                elif kind == "h":
                    b[i][i + 1] = b[i + 1][i] = rng.choice((-2, -1, 1, 2))
                    i += 1
                i += 1
            u = [[1 if i == j else rng.randint(-2, 2) if i < j else 0
                  for j in range(n)] for i in range(n)]
            out.append(([[sum(u[k][i] * b[k][l] * u[l][j]
                              for k in range(n) for l in range(n))
                          for j in range(n)] for i in range(n)], sig))
    return out


class TestSymSignature:
    """The integer reduction takes the pivots of the rational one, so
    the two agree exactly, singular matrices included."""

    MATRICES = random_symmetric(23)

    def test_corpus_has_singular_and_zero_diagonal_cases(self):
        big = [m for m, _ in self.MATRICES if len(m) >= 2]
        assert sum(I._det_adj(m)[0] == 0 for m in big) >= 20
        assert sum(not any(m[i][i] for i in range(len(m))) and any(map(any, m))
                   for m in big) >= 20

    def test_random_symmetric(self):
        for m, sig in self.MATRICES:
            got, _ = I._sym_reduce(m)
            assert got == fraction_sym_signature(m), m
            if sig is not None:
                assert got == sig, m

    def test_goeritz_minors(self):
        ds = ([build(s) for s in SYMBOLS + BATTERY]
              + TestSmoothingDeterminants.CLOSURES
              + mixed_closures(13, 120, max_strands=5))
        checked = 0
        for d in ds:
            if not d.n or d.loops or len(D.graph_components(d)) > 1:
                continue
            for color in (0, 1):
                m = I._minor(I._goeritz(d, color)[0], (0,))
                sig, det = I._sym_reduce(m)
                assert sig == fraction_sym_signature(m), m
                assert det == I._det_adj(m)[0], m
                checked += 1
        assert checked > 300


class TestPolyhedralAnchors:
    """Pinned links with both a polyhedral and an algebraic diagram."""

    def test_knot_with_two_minimal_diagrams(self):
        poly = build("6*2.2 1.-2 0.-1.-2")
        alg = build("(3,-2 1) (2 1,2)")
        assert D.components(poly) == 1
        assert I.determinant(poly) == I.determinant(alg) == 33
        assert I.jones(poly) == I.jones(alg)

    def test_vertical_zero_slot_matches_pretzel_form(self):
        # the same knot as the pretzel on the right, drawn on the
        # six-vertex basis with one slot carrying the vertical zero tangle
        poly = build("2.2.0 0.-2.-2.-3 0")
        pretzel = build("-2 2,2 2,3")
        assert I.determinant(poly) == I.determinant(pretzel) == 25
        assert I.jones(poly) == I.jones(pretzel)

    def test_link_with_two_minimal_diagrams(self):
        poly = build("6*-3.-2.2 0:2.-1")
        alg = build("(-2 1,4) (2,2)")
        assert D.components(poly) == D.components(alg) == 2
        assert I.determinant(poly) == I.determinant(alg) == 28
        # the two diagrams close up with opposite handedness, and a
        # two-component Jones is only pinned up to the q^(6m) gauge
        assert shift_equal(I.jones(poly), I.jones(alg).reverse())

    def test_polyhedral_knots_have_one_component(self):
        for sym, det in [("2 1 1:-2 1 0:2 0", 49), ("2:-3 1 0:3 0", 25),
                         ("-2.-2.-2 0.2.2.2 0", 25), (".2.(-2 1,2).2", 63),
                         ("-2 1 0.3.2.2 0", 25), ("8*2.2 0:-2 1 0", 49)]:
            d = build(sym)
            assert D.components(d) == 1, sym
            assert I.determinant(d) == det, sym

    def test_polyhedral_links_have_more_components(self):
        for sym, comps in [("6*2.(2,-2):2 0", 2), ("6*-2.2.-2:2 1", 2),
                           ("6*-2.2.-2:2 1 0", 3), ("6*2:.(-2 1,3) 0", 2),
                           ("6*3.(2,-2):2 0", 2), ("8*2.-2 1 0::2", 2),
                           ("8*(2,-2)::-2 0", 2), ("8*-2 0:-2 0:.2 0", 3)]:
            assert D.components(build(sym)) == comps, sym

    def test_vertical_twist_family_stays_two_component(self):
        for p in range(2, 6):
            assert D.components(build("6*%d.(2,-2):2 0" % p)) == 2

    def test_pinned_regression_values(self):
        # no convention reproduces the partner sometimes quoted for this
        # symbol; the computed pair is pinned to catch drift
        d = build(".2.-3 0.2")
        assert (D.components(d), I.determinant(d)) == (1, 21)
