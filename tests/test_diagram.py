"""Diagram builder tests: structure, moves, codes, polyhedra."""

import random

import pytest
from hypothesis import given, strategies as st

from qalinks import conway
from qalinks import diagram as D


SYMBOLS = [
    "3", "2 2", "2 1 1", "4", "2", "5", "2 1 1 1 1",
    "3,3,-3", "5,3,-3", "-2 1 2,3,3", "-2 2,2 2,3", "3,3,2-",
    "2 2,2 1,-2", "(2,2+) -(2 1,2)", "(2,2+) -(2 1,3)",
    "(3,-2 1) (2 1,2)", "(3,-2 1) (2,2)", "(-2 1,4) (2,2)",
    "(-3 1,3) (2 1,2)", "-2 2,2 1 2,3", "2 1 1,2 2,-2 1 1",
    ".2.-3 0.2", ".2.(-2 1,2).2", "6*2.2 1.-2 0.-1.-2",
    "6*-3.-2.2 0:2.-1", "2 1 1:-2 1 0:2 0", "2:-3 1 0:3 0",
    "-2.-2.-2 0.2.2.2 0", "8*2.2 0:-2 1 0", "8*2.-3 1 0",
    "8*-2 0.-2 0.-2 0", "9*.-2:.-3", "9*2", "10*2", "10**2.2", "10***2",
]


def build(s):
    return D.build(s)


def shuffled(d, seed):
    rng = random.Random(seed)
    perm = list(range(d.n))
    rng.shuffle(perm)

    def m(p):
        c, s = divmod(p, 4)
        return 4 * perm[c] + s

    return D.LinkDiagram(d.n, {m(a): m(b) for a, b in d.adj.items()}, d.loops)


class TestSmallDiagrams:
    def test_trefoil(self):
        d = build("3")
        assert d.n == 3 and d.loops == 0
        assert D.components(d) == 1
        assert D.is_alternating(d)
        assert len(D.faces(d)) == 5
        assert abs(D.writhe(d)) == 3

    def test_figure_eight(self):
        d = build("2 2")
        assert d.n == 4
        assert D.components(d) == 1
        assert D.writhe(d) == 0

    def test_hopf(self):
        d = build("2")
        assert d.n == 2
        assert D.components(d) == 2
        assert abs(D.writhe(d)) == 2

    def test_zero_tangle_closure_is_unlink(self):
        d = build("0")
        assert d.n == 0
        assert D.components(d) == 2

    def test_transpose_of_zero_closes_to_unknot(self):
        d = D.closure_numerator(D.transpose(D.int_tangle(0)))
        assert d.n == 0
        assert D.components(d) == 1


class TestMoves:
    def test_single_kink_reduces_to_unknot(self):
        d = D.simplify(build("1"))
        assert d.n == 0 and d.loops == 1

    def test_clasp_does_not_reduce(self):
        d = build("2")
        assert D.reduce_once(d) is None

    def test_trefoil_smoothings(self):
        # one smoothing of a trefoil crossing is a Hopf link diagram,
        # the other undoes to the unknot by a type 2 then type 1 move
        t = build("3")
        outcomes = set()
        for kind in "AB":
            s = D.simplify(D.smooth(t, 0, kind))
            if s.n == 0:
                assert s.loops == 1
                outcomes.add("unknot")
            else:
                assert D.canonical_code(s) == D.canonical_code(build("2")) \
                    or D.canonical_code(s) == D.canonical_code(D.mirror(build("2")))
                outcomes.add("hopf")
        assert outcomes == {"unknot", "hopf"}

    def test_r2_pair_unlinks(self):
        d = D.from_braid([1, -1], 2)
        s = D.simplify(d)
        assert s.n == 0 and s.loops == 2

    def test_smoothing_drops_a_crossing(self):
        d = build("2 2")
        for c in range(d.n):
            for kind in "AB":
                s = D.smooth(d, c, kind)
                assert s.n == d.n - 1
                assert len(D.faces(s)) == s.n + 2 or s.loops


class TestBraids:
    def test_trefoil_braid(self):
        b = D.from_braid([1, 1, 1], 2)
        assert D.canonical_code(b) == D.canonical_code(build("3"))

    def test_figure_eight_braid(self):
        b = D.from_braid([1, -2, 1, -2], 3)
        assert D.canonical_code(D.simplify(b)) == D.canonical_code(build("2 2"))

    def test_unused_strand_becomes_loop(self):
        b = D.from_braid([1], 3)
        assert b.loops == 1
        assert D.components(b) == 2

    def test_empty_word_rejected(self):
        with pytest.raises(D.EmptyWordError):
            D.from_braid([], 2)

    def test_bad_generator_rejected(self):
        with pytest.raises(ValueError):
            D.from_braid([3], 2)


def braid_closures(seed, count):
    """Seeded 3- and 4-strand closures and both smoothings of crossing 0."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        strands = rng.choice((3, 4))
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(2, 8))]
        d = D.from_braid(word, strands)
        out += [d, D.smooth(d, 0, "A"), D.smooth(d, 0, "B")]
    return out


class TestStateCircles:
    DIAGRAMS = braid_closures(11, 30)

    def test_corpus_has_links_and_loops(self):
        assert any(D.components(d) > 1 for d in self.DIAGRAMS)
        assert any(d.loops for d in self.DIAGRAMS)

    def test_circles_partition_the_plugs(self):
        for d in self.DIAGRAMS:
            for state in range(1 << d.n):
                circles = D.state_circles(d, state)
                plugs = sorted(p for circle in circles for p in circle)
                assert plugs == list(range(4 * d.n))
                assert [c[0] for c in circles] == sorted(min(c) for c in circles)

    def test_one_flip_changes_the_count_by_one(self):
        for d in self.DIAGRAMS:
            circles = [set(D.state_circles(d, s)) for s in range(1 << d.n)]
            for state in range(1 << d.n):
                for c in range(d.n):
                    other = circles[state ^ 1 << c]
                    assert abs(len(other) - len(circles[state])) == 1
                    # untouched circles keep their tuples
                    assert len(other ^ circles[state]) == 3


class TestCorpus:
    @pytest.mark.parametrize("sym", SYMBOLS)
    def test_structure(self, sym):
        d = build(sym)
        assert d.loops == 0
        assert d.n == conway.symbol_crossings(conway.parse(sym))
        assert len(D.faces(d)) == d.n + 2
        fs, colors = D.checkerboard(d)
        assert sorted(set(colors)) == [0, 1]

    @pytest.mark.parametrize("sym", SYMBOLS)
    def test_code_stable_under_relabeling(self, sym):
        d = build(sym)
        code = D.canonical_code(d)
        for seed in (1, 2, 3):
            assert D.canonical_code(shuffled(d, seed)) == code

    @pytest.mark.parametrize("sym", SYMBOLS)
    def test_mirror_involution(self, sym):
        d = build(sym)
        assert D.canonical_code(D.mirror(D.mirror(d))) == D.canonical_code(d)

    def test_mirror_matches_negated_symbol(self):
        for sym in ("3", "2 2", "2 1 1", "5", "3,3,-3"):
            lhs = D.canonical_code(D.mirror(build(sym)))
            rhs = D.canonical_code(build(conway.render(
                conway.mirror_expr(conway.parse(sym)))))
            assert lhs == rhs

    def test_alternating_iff_no_negative_entries(self):
        assert D.is_alternating(build("2 1 1,2 1,2"))
        assert D.is_alternating(build("8*2.2.2"))
        assert not D.is_alternating(build("3,3,-3"))
        assert not D.is_alternating(build("6*2.2 1.-2 0.-1.-2"))


class TestPolyhedra:
    def test_all_one_fills(self):
        expected_components = {
            "6*": 3,   # the six crossing basic polyhedron is the Borromean rings
            "8*": 1, "9*": 1, "10*": 1, "10**": 2, "10***": 4,
        }
        for basis, k in conway.BASIS_VERTICES.items():
            d = build(basis + "1" + ".1" * (k - 1))
            assert d.n == k
            assert D.is_alternating(d)
            assert len(D.faces(d)) == d.n + 2
            assert D.components(d) == expected_components[basis]

    def test_trailing_ones_are_implicit(self):
        assert D.canonical_code(build("6*2")) == \
            D.canonical_code(build("6*2.1.1.1.1.1"))

    def test_colon_expansion(self):
        assert D.canonical_code(build("2 1 1:-2 1 0:2 0")) == \
            D.canonical_code(build("6*2 1 1.1.-2 1 0.1.2 0.1"))

    def test_basis_frames_are_involutions(self):
        for basis, frames in D.BASIS_FRAMES.items():
            for v, frame in enumerate(frames):
                for k, (w, j) in enumerate(frame):
                    assert D.BASIS_FRAMES[basis][w][j] == (v, k)

    def test_frames_alternate(self):
        # every basis edge joins an understrand dart to an overstrand dart
        for basis, frames in D.BASIS_FRAMES.items():
            for v, frame in enumerate(frames):
                for k, (w, j) in enumerate(frame):
                    assert (k + j) % 2 == 1


@st.composite
def rational_symbols(draw):
    terms = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    if draw(st.booleans()):
        terms = [-t for t in terms]
    return " ".join(str(t) for t in terms)


class TestProperties:
    @given(rational_symbols())
    def test_rational_builds(self, sym):
        d = build(sym)
        assert d.n == conway.symbol_crossings(conway.parse(sym))
        assert len(D.faces(d)) == d.n + 2
        assert D.components(d) in (1, 2)

    @given(rational_symbols(), st.integers(0, 3))
    def test_smooth_then_euler(self, sym, c):
        d = build(sym)
        s = D.smooth(d, c % d.n, "A")
        if not s.loops and s.n:
            assert len(D.faces(s)) == s.n + 2

    @given(rational_symbols())
    def test_simplify_reaches_fixpoint(self, sym):
        d = D.simplify(build(sym))
        assert D.reduce_once(d) is None
