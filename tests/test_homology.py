"""Mod-2 Khovanov homology tests.

The main oracle is the graded Euler characteristic: summing
(-1)^i q^j rank_F2 over the table must reproduce the Kauffman-bracket
Jones polynomial times (q + 1/q), up to the sign (-1)^(comps-1).  The
bracket is a state sum computed by a different module, so agreement
checks the whole chain complex (gradings, differential, rank counts)
against an independent pipeline.
"""

import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from qalinks import diagram as D
from qalinks import homology as H
from qalinks.invariants import LaurentPoly, SizeLimitError, jones, signature

from oracles import (
    cube_d_squared_zero, cube_khovanov_f2, d_squared_zero, dict_surface,
    list_reduce, mirror, union_find_circles, union_find_strands,
)
from test_diagram import BATTERY, mixed_closures


def euler_poly(ranks):
    p = LaurentPoly()
    for (i, j), r in ranks.items():
        p = p + LaurentPoly.term(r if i % 2 == 0 else -r, j)
    return p


def euler_matches_jones(d, ranks):
    rhs = jones(d) * LaurentPoly({1: 1, -1: 1})
    if D.components(d) % 2 == 0:
        rhs = -rhs
    return euler_poly(ranks) == rhs


class TestSmallTables:
    def test_unknot(self):
        ranks = H.khovanov_f2(D.build("1"))
        assert ranks == {(0, 1): 1, (0, -1): 1}

    def test_two_component_unlink(self):
        d = D.LinkDiagram(0, [], 2)
        ranks = H.khovanov_f2(d)
        assert ranks == {(0, 2): 1, (0, 0): 2, (0, -2): 1}

    def test_left_trefoil(self):
        # build("3") is the negative trefoil here (writhe -3), so the
        # table sits in non-positive gradings; total F2 rank is 6, the
        # reduced F2 table of rank 3 counted at j and again at j + 2.
        ranks = H.khovanov_f2(D.build("3"))
        assert sum(ranks.values()) == 6
        assert ranks[(0, -1)] == 1 and ranks[(0, -3)] == 1
        assert ranks[(-3, -9)] == 1
        assert set(j - 2 * i for i, j in ranks) == {-1, -3}

    def test_figure_eight(self):
        ranks = H.khovanov_f2(D.build("2 2"))
        assert sum(ranks.values()) == 10
        assert set(j - 2 * i for i, j in ranks) == {-1, 1}

    def test_empty_diagram(self):
        assert H.khovanov_f2(D.LinkDiagram(0, [], 0)) == {(0, 0): 1}

    def test_keys_sorted(self):
        for sym in BATTERY:
            ranks = H.khovanov_f2(D.build(sym))
            assert list(ranks) == sorted(ranks), sym

    def test_torus_3_4_is_wide(self):
        # 8_19 in one of its Conway forms; the first non-thin knot.
        rep = H.thinness(H.khovanov_f2(D.build("3,3,2-")), 0)
        assert rep.width == 3


class TestOracles:
    @pytest.mark.parametrize("sym", BATTERY)
    def test_euler_characteristic(self, sym):
        d = D.build(sym)
        assert euler_matches_jones(d, H.khovanov_f2(d))

    @pytest.mark.parametrize("sym", BATTERY)
    def test_differential_squares_to_zero(self, sym):
        assert d_squared_zero(D.build(sym))

    def test_invariance_under_reduction(self):
        # Reidemeister I/II reductions must not move the table.  The
        # braid word carries one kink and one cancelling pair.
        d = D.from_braid([1, 1, 1, 2, -2, 1], 3)
        assert H.khovanov_f2(d) == H.khovanov_f2(D.simplify(d))

    @pytest.mark.parametrize("sym", ["3,3,-3", "(2,2+) -(2 1,2)"])
    def test_invariance_on_reducible_symbols(self, sym):
        d = D.build(sym)
        assert H.khovanov_f2(d) == H.khovanov_f2(D.simplify(d))

    def test_mirror_flips_gradings(self):
        d = D.build("2 2")
        left = H.khovanov_f2(d)
        right = H.khovanov_f2(mirror(d))
        assert right == {(-i, -j): r for (i, j), r in left.items()}


class TestReducedAgainstCube:
    """The reduced ranks, tensored with V for the marked circle and
    each free loop by the one tail both paths share, equal the full
    cube's exactly, on either path: the marked-circle cube and the
    local scan, called directly, and khovanov_f2, which picks one by
    SCAN_FROM."""

    # two split trefoil pieces, and a trefoil beside two free loops
    NAMED = [D.from_braid([1, 1, 1, 3, 3, 3], 4), D.from_braid([2, 2, 2], 4)]
    CLOSURES = NAMED + mixed_closures(13, 120, max_strands=5)

    @staticmethod
    def derived(d, rng):
        out = [d, D.simplify(d)]
        if d.n:
            c = rng.randrange(d.n)
            out += [D.smooth(d, c, kind) for kind in "AB"]
        return out

    @staticmethod
    def check(d):
        want = cube_khovanov_f2(d)
        assert H.khovanov_f2(d) == want
        assert H._cube(d) == want
        assert H._scan(d) == want

    def test_corpus_has_links_loops_and_split_pieces(self):
        assert any(D.components(d) > 1 and not d.loops for d in self.CLOSURES)
        assert any(d.loops for d in self.CLOSURES)
        assert any(len(D.graph_components(d)) > 1 for d in self.CLOSURES)

    @pytest.mark.parametrize("sym", BATTERY)
    def test_battery(self, sym):
        self.check(D.build(sym))

    @pytest.mark.parametrize("code", ["|1", "|2", "|3"])
    def test_free_loops(self, code):
        self.check(D.from_code(code))

    def test_closures_simplified_and_smoothed(self):
        rng = random.Random(17)
        for d in self.CLOSURES:
            for e in self.derived(d, rng):
                self.check(e)

    @pytest.mark.parametrize(
        "sym", [s for s in BATTERY if D.build(s).n <= 9])
    def test_cube_differential_squares_to_zero(self, sym):
        assert cube_d_squared_zero(D.build(sym))


class TestSurfaceRules:
    """The F2 rules, dot^2 = 0, that reduce a glued surface to dot
    patterns on its boundary cycles, one surface per rule: _reduce
    gives an int with bit P set for each term P."""

    # three disks joined in a row by two intervals each: a sphere with
    # three holes, one boundary cycle per disk
    PANTS = (3, [(0, 1, 1), (0, 1, 1), (1, 2, 1), (1, 2, 1)], [0, 1, 2])

    def test_a_handle_is_zero(self):
        # two disks joined along three intervals, one boundary cycle
        assert H._surface(2, [(0, 1, 1)] * 3, [0], 0) is None

    def test_a_sphere_is_one_with_exactly_one_dot(self):
        # a disk capped along its boundary circle
        comps = H._surface(2, [(0, 1, 0)], [], 0)
        assert [H._reduce(comps, dots) for dots in (0, 1, 2, 3)] == [
            0, 1, 1, 0]

    def test_genus_zero_pieces(self):
        comps = H._surface(*self.PANTS, 0)
        # undotted: every term with all cycles but one dotted
        assert H._reduce(comps, 0) == 1 << 0b110 | 1 << 0b101 | 1 << 0b011
        # once dotted: all its cycles dotted; twice: 0
        assert H._reduce(comps, 0b010) == 1 << 0b111
        assert H._reduce(comps, 0b011) == 0

    def test_no_dot_on_a_marked_cycle(self):
        comps = H._surface(*self.PANTS, 0b001)
        assert H._reduce(comps, 0) == 1 << 0b110
        assert H._reduce(comps, 0b100) == 0
        assert H._reduce(H._surface(*self.PANTS, 0b011), 0) == 0


class TestScanKernels:
    """The scan's surface and reduce kernels return what their first
    versions in tests/oracles.py return, on every call that khovanov_f2
    makes on BATTERY with the scan forced from 0 crossings."""

    @pytest.fixture(scope="class")
    def calls(self):
        surfaces, reduces = [], []
        surface, reduce = H._surface, H._reduce

        def record_surface(*args):
            surfaces.append(args)
            return surface(*args)

        def record_reduce(*args):
            reduces.append(args)
            return reduce(*args)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(H, "SCAN_FROM", 0)
            m.setattr(H, "_surface", record_surface)
            m.setattr(H, "_reduce", record_reduce)
            for sym in BATTERY:
                H.khovanov_f2(D.build(sym))
        return surfaces, reduces

    def test_surface(self, calls):
        surfaces, _ = calls
        assert len(surfaces) > 1000
        for args in surfaces:
            assert H._surface(*args) == dict_surface(*args)

    def test_reduce(self, calls):
        _, reduces = calls
        assert len(reduces) > 1000
        # components of every kind: a sphere, a marked cycle, one term
        # undotted, several
        kinds = {(min(len(none), 2), len(one)) for comps, _ in reduces
                 for _, none, one in comps}
        assert {(0, 1), (1, 0), (1, 1), (2, 1)} <= kinds
        for args in reduces:
            assert H._reduce(*args) == list_reduce(*args)


class TestScanComplex:
    """The local scan's complex, forced on every diagram by SCAN_FROM =
    0, squares to zero after every crossing and ends with no
    differential left."""

    @pytest.mark.parametrize("sym", BATTERY)
    def test_differential_squares_to_zero_after_every_crossing(
            self, sym, monkeypatch):
        monkeypatch.setattr(H, "SCAN_FROM", 0)
        assert d_squared_zero(D.build(sym))

    @pytest.mark.parametrize("sym", BATTERY)
    def test_no_differential_is_left(self, sym):
        d = D.build(sym)
        steps = 0
        for _, out, _ in H._complexes(d):
            steps += 1
        assert steps == d.n and not any(out.values())


class TestCutArc:
    """The scan cuts the arc whose earlier end scan_order places last,
    ties to the smallest plug.  Over F2 the ranks do not depend on the
    arc cut (A. Shumakovitch, arXiv:math/0405474), so relabelled copies,
    whose scan orders cut other arcs, give their full cube's table."""

    CLOSURES = mixed_closures(23, 40, max_strands=5)

    @staticmethod
    def cut(d):
        """The arc the scan cuts, as diagram.scan_walk reports it."""
        return D.scan_walk(d)[0]

    @staticmethod
    def copies(d, rng):
        """d relabelled twice by seeded crossing permutations and half
        turns (plug 4c + s renamed 4 perm[c] + (s ^ 2 turn[c])), each
        with the map from its plugs back to d's."""
        out = []
        for _ in range(2):
            perm = rng.sample(range(d.n), d.n)
            labels = [4 * perm[c] | 2 * rng.randrange(2) for c in range(d.n)]
            back = [0] * (4 * d.n)
            for p in range(4 * d.n):
                back[labels[p >> 2] ^ p & 3] = p
            out.append((D.relabel(d, labels), back))
        return out

    @pytest.mark.parametrize("sym", BATTERY)
    def test_no_arc_is_reached_later(self, sym):
        d = D.build(sym)
        at = {c: i for i, c in enumerate(D.scan_order(d))}

        def reached(p):  # the place of the arc's earlier end
            return min(at[p >> 2], at[d.adj[p] >> 2])

        p, q = self.cut(d)
        assert d.adj[p] == q
        last = max(reached(x) for x in range(4 * d.n))
        assert reached(p) == last
        assert min(p, q) == min(x for x in range(4 * d.n)
                                if reached(x) == last)

    def test_largest_complex_at_twelve_crossings(self):
        # the objects and entries of the scan's complex after every step,
        # which pin its delooping and eliminations crossing by crossing;
        # the arc (0, adj[0]), open from the first crossing, took the
        # twelve-crossing diagram to 221 objects
        cases = [
            (D.from_braid([-1, -1, 2, 2, 2, -1, -1], 3),
             [2, 3, 4, 4, 8, 12, 12], [1, 2, 3, 0, 4, 8, 0]),
            (D.build("3,3,-3"), [2, 3, 4, 8, 12, 15, 11, 11, 9],
             [1, 2, 3, 10, 17, 18, 14, 12, 0]),
            (D.build("2 1 1:-2 1 0:2 0"),
             [2, 3, 5, 8, 16, 29, 50, 84, 98, 73, 73, 49],
             [1, 2, 4, 7, 22, 47, 92, 172, 146, 119, 125, 0]),
        ]
        for d, objects, entries in cases:
            sizes = [(len(o), sum(map(len, out.values())))
                     for o, out, _ in H._complexes(d)]
            assert sizes == list(zip(objects, entries))
        assert d.n == 12 and max(objects) == 98

    def check(self, d, rng, monkeypatch):
        """Check d's relabelled copies; return how many of those with
        crossings cut another arc than d, and how many have crossings."""
        first = set(self.cut(d))
        # a copy may walk a link's components the other way; its cube's
        # table depends on the copy through its negative crossings only
        want, moved, total = {}, 0, 0
        for e, back in self.copies(d, rng):
            n_minus = D.crossing_signs(e).count(-1)
            if n_minus not in want:
                want[n_minus] = cube_khovanov_f2(e)
            assert H._scan(e) == want[n_minus]
            with monkeypatch.context() as m:
                m.setattr(H, "SCAN_FROM", 0)
                assert d_squared_zero(e)
            if e.n:
                total += 1
                moved += {back[p] for p in self.cut(e)} != first
        return moved, total

    @pytest.mark.parametrize("sym", BATTERY)
    def test_battery(self, sym, monkeypatch):
        self.check(D.build(sym), random.Random(sym), monkeypatch)

    def test_closures(self, monkeypatch):
        rng = random.Random(29)
        moved = total = 0
        for d in self.CLOSURES:
            m, t = self.check(d, rng, monkeypatch)
            moved, total = moved + m, total + t
        # the copies mostly cut another arc than the diagram itself
        assert moved > total // 2


class TestPastTheCap:
    """The scan called directly past CROSSING_CAP, where khovanov_f2
    still refuses: each table's graded Euler characteristic is the
    Jones polynomial times q + 1/q, within a generous time bound (5 to
    15 ms were measured on a 2-core x86-64 host)."""

    SYMBOLS = ["6*2.4 1.-2 0.-1.-2", "7,3,3", "5 5 5", "3 3 3 3 3"]

    @pytest.mark.parametrize("sym", SYMBOLS)
    def test_euler_characteristic_in_time(self, sym):
        d = D.build(sym)
        assert H.CROSSING_CAP < d.n <= 15
        t0 = time.perf_counter()
        ranks = H._scan(d)
        assert time.perf_counter() - t0 < 3.0
        assert euler_matches_jones(d, ranks)

    @pytest.mark.parametrize("sym", SYMBOLS)
    def test_khovanov_f2_refuses(self, sym):
        with pytest.raises(SizeLimitError):
            H.khovanov_f2(D.build(sym))


class TestEdgeIndexRule:
    """The circle indices of an edge's two end states, as state_circles
    numbers them, follow the rule the complex is built on.  A merge of
    the circles a < b at plugs 4c and 4c + 2 leaves the merged circle
    at a and moves every circle above b down one; a split of a leaves
    the part through a's smallest plug at a, inserts the other part at
    w, its target index at plug 4c or 4c + 1, and moves every circle
    from w up one.  Free loops count as the last circles.

    The image tables _blocks reads follow from the same circles: the
    entry for labeling x (bit i set when circle i carries x) is the
    image's slot y >> 1 in the end state, -1 for a merge that sends x
    to 0, and for a split the pair (u, v) of its terms' slots, v = -1
    when the image is one term."""

    CLOSURES = mixed_closures(19, 80, max_strands=5)

    @staticmethod
    def circles(d, mask):
        return ([frozenset(c) for c in D.state_circles(d, mask)]
                + [("loop", i) for i in range(d.loops)])

    @staticmethod
    def images(src, dst, a, b, w):
        """The table entry of every odd labeling of src, derived from
        the circles: merge a < b when w is None, else split a with the
        new circle at w."""
        def slot(xs):  # the end-state labeling carrying x on circles xs
            y = sum(1 << i for i, circle in enumerate(dst) if circle in xs)
            assert y & 1  # the marked circle keeps its x
            return y >> 1

        want = []
        for x in range(1, 1 << len(src), 2):
            xs = {circle for i, circle in enumerate(src) if x >> i & 1}
            if w is None:
                hit = xs & {src[a], src[b]}
                want.append(-1 if len(hit) == 2 else
                            slot(xs | {src[a] | src[b]} if hit else xs))
            elif src[a] in xs:
                want.append((slot(xs | {dst[a], dst[w]}), -1))
            else:
                want.append((slot(xs | {dst[w]}), slot(xs | {dst[a]})))
        return want

    def check(self, d):
        """Check every edge, and count the zero merge images and the
        two-term split images."""
        edges = zeros = pairs = 0
        states = [self.circles(d, mask) for mask in range(1 << d.n)]
        for mask, src in enumerate(states):
            ls = {p: i for i, circle in enumerate(src[:len(src) - d.loops])
                  for p in circle}
            for c in range(d.n):
                if mask >> c & 1:
                    continue
                dst = states[mask | 1 << c]
                lt = {p: i for i, circle in enumerate(dst[:len(dst) - d.loops])
                      for p in circle}
                assert ls[0] == lt[0] == 0  # the marked circle
                a, b = ls[4 * c], ls[4 * c + 2]
                if a != b:
                    a, b = min(a, b), max(a, b)
                    assert dst == (src[:a] + [src[a] | src[b]]
                                   + src[a + 1:b] + src[b + 1:])
                    table = H._merge_images(len(src), a, b)
                    assert table == self.images(src, dst, a, b, None)
                    zeros += table.count(-1)
                else:
                    u, v = lt[4 * c], lt[4 * c + 1]
                    assert u != v and a in (u, v)
                    w = u + v - a
                    assert a < w and min(src[a]) in dst[a]
                    assert dst[a] | dst[w] == src[a]
                    assert not dst[a] & dst[w]
                    assert dst == (src[:a] + [dst[a]] + src[a + 1:w]
                                   + [dst[w]] + src[w:])
                    table = H._split_images(len(src), a, w)
                    assert table == self.images(src, dst, a, None, w)
                    pairs += sum(second >= 0 for _, second in table)
                edges += 1
        assert edges == d.n << max(d.n - 1, 0)
        return zeros, pairs

    @pytest.mark.parametrize(
        "sym", [s for s in BATTERY if D.build(s).n <= 10])
    def test_battery(self, sym):
        self.check(D.build(sym))

    def test_closures(self):
        assert any(D.components(d) > 1 and not d.loops for d in self.CLOSURES)
        assert any(d.loops for d in self.CLOSURES)
        assert any(len(D.graph_components(d)) > 1 for d in self.CLOSURES)
        zeros = pairs = 0
        for d in self.CLOSURES:
            z, p = self.check(d)
            zeros, pairs = zeros + z, pairs + p
        assert zeros and pairs


class TestStateLabels:
    """_labels derives each state's plug -> circle labels from a parent
    state by one merge or split; they equal a fresh state_circles walk
    of every state, free loops left out of the circle count, which is
    1 for a diagram without crossings, its marked free loop."""

    CLOSURES = TestEdgeIndexRule.CLOSURES

    @staticmethod
    def walked(d):
        lab, ks = [], []
        for mask in range(1 << d.n):
            circles = D.state_circles(d, mask)
            here = bytearray(4 * d.n)
            for i, circle in enumerate(circles):
                for p in circle:
                    here[p] = i
            lab.append(bytes(here))
            ks.append(len(circles) or 1)
        return lab, ks

    def check(self, d):
        """Compare, and count the states that a merge can reach (some
        parent has one circle more) and those only a split reaches."""
        lab, ks = self.walked(d)
        assert H._labels(d) == (lab, ks)
        merges = splits = 0
        for mask in range(1, 1 << d.n):
            if any(ks[mask ^ 1 << c] > ks[mask]
                   for c in range(d.n) if mask >> c & 1):
                merges += 1
            else:
                splits += 1
        return merges, splits

    @pytest.mark.parametrize(
        "sym", [s for s in BATTERY if D.build(s).n <= 10])
    def test_battery(self, sym):
        self.check(D.build(sym))

    def test_closures_take_both_branches(self):
        merges = splits = 0
        for d in self.CLOSURES:
            m, s = self.check(d)
            merges, splits = merges + m, splits + s
        assert merges and splits


class TestWalksAgainstUnionFind:
    """The package's strand and state-circle walks find the classes
    that union-find over the arcs and the slot pairs finds.  Each
    circle is the tuple of its plugs from its smallest one, circles in
    order of smallest plugs, and a walk takes each arc from its first
    plug, so the odd positions of a tuple are the plugs at odd
    distance.  A traversal enters a crossing at the plugs an odd
    number of steps from the smallest plug of its component."""

    CLOSURES = TestEdgeIndexRule.CLOSURES

    @staticmethod
    def check(d, states):
        classes, odd = union_find_strands(d)
        assert D.components(d) == len(classes) + d.loops
        assert D.entry_plugs(d) == odd
        for state in states:
            classes, odd = union_find_circles(d, state)
            circles = D.state_circles(d, state)
            assert [sorted(c) for c in circles] == classes
            assert [c[0] for c in circles] == [c[0] for c in classes]
            assert {p for c in circles for p in c[1::2]} == odd

    @pytest.mark.parametrize(
        "sym", [s for s in BATTERY if D.build(s).n <= 10])
    def test_battery(self, sym):
        d = D.build(sym)
        self.check(d, range(1 << d.n))

    def test_closures(self):
        assert any(D.components(d) > 1 and not d.loops for d in self.CLOSURES)
        assert any(d.loops for d in self.CLOSURES)
        for d in self.CLOSURES:
            every = (1 << d.n) - 1
            self.check(d, range(every + 1) if d.n <= 6 else (0, every))


class TestKunneth:
    """A free loop tensors the complex with V = <1, x>, over F2 exactly:
    each rank moves to j - 1 and j + 1."""

    # closures with crossings and unused strands, which become free loops
    WORDS = [([1, 1, 1], 3), ([1, -2, 1, -2], 4), ([2, 2, 2], 4),
             ([2, -3, 2, 2, -3, 2, -3], 5)]

    @pytest.mark.parametrize("word,strands", WORDS)
    def test_free_loops_leave_the_cube_alone(self, word, strands):
        # the tail tensors V once per free loop, so the cube's blocks
        # are those of the diagram without its loops
        d = D.from_braid(word, strands)
        bare = H._blocks(D.LinkDiagram(d.n, d.adj, 0))
        for loops in range(1, 4):
            assert H._blocks(D.LinkDiagram(d.n, d.adj, loops)) == bare

    @pytest.mark.parametrize("word,strands", WORDS)
    def test_extra_loop_shifts_by_j_plus_minus_one(self, word, strands):
        d = D.from_braid(word, strands)
        assert d.n and d.loops
        want = {}
        for (i, j), r in H.khovanov_f2(d).items():
            for dj in (-1, 1):
                want[(i, j + dj)] = want.get((i, j + dj), 0) + r
        more = D.LinkDiagram(d.n, d.adj, d.loops + 1)
        assert H.khovanov_f2(more) == want


class TestThinness:
    def test_alternating_rationals_are_thin(self):
        for sym in ["3", "2 2", "4", "2 1 1", "5", "3 2", "2 3 2", "2 2 2 2"]:
            d = D.build(sym)
            rep = H.thinness(H.khovanov_f2(d), signature(d))
            assert rep.thin and rep.sigma_thin, sym

    def test_sigma_thin_calibration(self):
        d = D.build("3")
        s = signature(d)
        assert s == 2
        rep = H.thinness(H.khovanov_f2(d), s)
        assert rep.diagonals == (-3, -1)
        assert rep.sigma_thin

    def test_wide_knot_is_not_sigma_thin(self):
        d = D.build("3,3,2-")
        rep = H.thinness(H.khovanov_f2(d), signature(d))
        assert rep.width == 3 and not rep.thin and not rep.sigma_thin

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            H.thinness({}, 0)

    def test_equal_reports_are_shared(self):
        # rows kept side by side hold one copy of each report
        ranks = H.khovanov_f2(D.build("3"))
        rep = H.thinness(ranks, 2)
        assert H.thinness(dict(ranks), 2) is rep
        other = H.thinness(ranks, 0)
        assert other is not rep and not other.sigma_thin


class TestLimits:
    def test_crossing_cap(self):
        with pytest.raises(SizeLimitError):
            H.khovanov_f2(D.build("7,3,3"))

    def test_dimension_cap(self, monkeypatch):
        monkeypatch.setattr(H, "DIM_CAP", 8)
        with pytest.raises(SizeLimitError):
            H.khovanov_f2(D.build("2 2"))

    def test_one_crossing_signs_call_after_the_cap(self, monkeypatch):
        calls = []
        monkeypatch.setattr(H, "crossing_signs",
                            lambda d: calls.append(d) or D.crossing_signs(d))
        H.khovanov_f2(D.build("2 1 1"))
        assert len(calls) == 1
        with pytest.raises(SizeLimitError):
            H.khovanov_f2(D.build("7,3,3"))
        assert len(calls) == 1

    @pytest.mark.parametrize("d", [
        D.build("-2 2,2 2,3"),
        # two split pieces and a free loop
        D.from_braid([1, 1, 1, 1, 1, 3, 3, 3, 3], 5)])
    def test_same_dimension_cap_on_both_paths(self, d, monkeypatch):
        # the unreduced dimension, the sum of 2^k over the states with k
        # circles, refuses a diagram at the same cap on either path,
        # before crossing_signs is called
        assert d.n >= H.SCAN_FROM
        total = sum(1 << len(D.state_circles(d, s)) + d.loops
                    for s in range(1 << d.n))
        calls = []
        monkeypatch.setattr(H, "crossing_signs",
                            lambda d: calls.append(d) or D.crossing_signs(d))
        tables = []
        for scan_from in 0, H.CROSSING_CAP + 1:
            monkeypatch.setattr(H, "SCAN_FROM", scan_from)
            monkeypatch.setattr(H, "DIM_CAP", total - 1)
            with pytest.raises(SizeLimitError):
                H.khovanov_f2(d)
            assert len(calls) == len(tables)
            monkeypatch.setattr(H, "DIM_CAP", total)
            tables.append(H.khovanov_f2(d))
        assert tables[0] == tables[1] and len(calls) == 2

    def test_peak_memory_at_twelve_crossings(self):
        # khovanov_f2 runs the scan here, which holds one step's complex
        # at a time (98 objects at most) and peaked near 0.3 MB; the
        # cube, built whole, peaks near 5 MB
        d = D.build("2 1 1:-2 1 0:2 0")
        assert d.n == 12
        tracemalloc.start()
        try:
            H.khovanov_f2(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5e6


@st.composite
def rational_symbols(draw):
    terms = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    return " ".join(str(t) for t in terms)


class TestProperties:
    @given(rational_symbols())
    @settings(max_examples=25, deadline=None)
    def test_euler_identity_on_rationals(self, sym):
        d = D.build(sym)
        assert euler_matches_jones(d, H.khovanov_f2(d))

    @given(rational_symbols())
    @settings(max_examples=15, deadline=None)
    def test_rational_width_at_most_two(self, sym):
        # Alternating diagrams support the thin dichotomy.
        rep = H.thinness(H.khovanov_f2(D.build(sym)), 0)
        assert rep.width <= 2
