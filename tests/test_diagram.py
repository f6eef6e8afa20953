"""Diagram builder tests: structure, moves, codes, polyhedra."""

import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from qalinks import conway
from qalinks import diagram as D

from test_conway import CORPUS, instance
from oracles import (
    brute_canonical_code, checkerboard, code_from, dart_faces, mirror,
    fuse_scan_walk, r3_moves_every_arc, render, symbol_crossings, walk_fuse,
)


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

# the homology tests' symbols, up to 12 crossings
BATTERY = [
    "1", "2", "3", "2 2", "4", "2 1 1", "5", "2 1 1 1 1",
    "3,3,-3", "3,3,2-", "2 2,2 1,-2", "(2,2+) -(2 1,2)",
    "-2 2,2 2,3", ".2.-3 0.2", "2 1 1:-2 1 0:2 0",
    "8*-2 0.-2 0.-2 0",
]


def build(s):
    return D.build(s)


def renamed(d, m):
    """d with every plug p renamed m(p)."""
    adj = [None] * (4 * d.n)
    for a, b in enumerate(d.adj):
        adj[m(a)] = m(b)
    return D.LinkDiagram(d.n, adj, d.loops)


def shuffled(d, seed):
    rng = random.Random(seed)
    perm = list(range(d.n))
    rng.shuffle(perm)

    def m(p):
        c, s = divmod(p, 4)
        return 4 * perm[c] + s

    return renamed(d, m)


def turned(d, seed):
    """The same diagram with random crossings turned by 180 degrees:
    slot s becomes s + 2 at both ends of every arc."""
    rng = random.Random(seed)
    flip = {c for c in range(d.n) if rng.random() < 0.5}

    def m(p):
        c, s = divmod(p, 4)
        return 4 * c + (s + 2) % 4 if c in flip else p

    return renamed(d, m)


def mixed_closures(seed, count, max_strands=4):
    """Seeded closures on 2 to max_strands strands over a random set of
    generators, so some have free loops or split pieces; links come
    with them."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        strands = rng.randint(2, max_strands)
        gens = [g for g in range(1, strands) if rng.random() < 0.7] or [1]
        word = [rng.choice((1, -1)) * rng.choice(gens)
                for _ in range(rng.randint(1, 9))]
        out.append(D.from_braid(word, strands))
    return out


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
                    or D.canonical_code(s) == D.canonical_code(mirror(build("2")))
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


class TestGoldenCodes:
    """Codes are stored in certificates, so their exact text is pinned."""

    CODES = {
        "3": "1.1 1.0 2.1 2.0,0.1 0.0 2.3 2.2,0.3 0.2 1.3 1.2|0",
        "2 2": "1.1 1.0 2.1 3.0,0.1 0.0 3.3 2.2,3.1 0.2 1.3 3.2,"
               "0.3 2.0 2.3 1.2|0",
        "2": "1.1 1.0 1.3 1.2,0.1 0.0 0.3 0.2|0",
        "6*2.2 1.-2 0.-1.-2":
            "1.0 2.0 2.3 3.1,0.0 3.0 4.1 4.0,0.1 5.0 6.1 0.2,"
            "1.1 0.3 6.0 7.0,1.3 1.2 8.1 5.1,2.1 4.3 9.1 9.0,"
            "3.2 2.2 9.3 10.1,3.3 10.0 8.3 8.2,10.3 4.2 7.3 7.2,"
            "5.3 5.2 10.2 6.2,7.1 6.3 9.2 8.0|0",
    }

    @pytest.mark.parametrize("sym", sorted(CODES))
    def test_symbol_codes(self, sym):
        assert D.canonical_code(build(sym)) == self.CODES[sym]

    def test_braid_closure_with_free_loop(self):
        d = D.from_braid([1, 1, 1], 3)
        assert (d.n, d.loops) == (3, 1)
        assert D.canonical_code(d) == (
            "1.1 1.0 2.1 2.0,0.1 0.0 2.3 2.2,0.3 0.2 1.3 1.2|1")

    def test_split_pieces_are_sorted(self):
        d = D.from_braid([1, 1, 1, 3, -3, 3, 3], 5)
        assert len(D.graph_components(d)) == 2 and d.loops == 1
        assert D.canonical_code(d) == (
            "1.0 1.3 2.1 2.0,0.0 3.1 3.0 0.1,0.3 0.2 3.3 3.2,"
            "1.2 1.1 2.3 2.2;"
            "1.1 1.0 2.1 2.0,0.1 0.0 2.3 2.2,0.3 0.2 1.3 1.2|1")

    def test_non_planar_gluing_is_rejected(self):
        # the trefoil code with two arcs swapped: still an involution on
        # one connected piece, but 3 faces where a planar one has 5
        good = self.CODES["3"]
        bad = "1.0 1.1 2.1 2.0,0.0 0.1 2.3 2.2,0.3 0.2 1.3 1.2|0"
        assert D.canonical_code(D.from_code(good)) == good
        with pytest.raises(ValueError):
            D.from_code(bad)


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


class TestCanonicalCodeOracle:
    """The lockstep code equals the min over full reads from every start."""

    CLOSURES = mixed_closures(5, 120)
    # 10***2, whose minimal start is unique, is among the SYMBOLS
    SYMMETRIC = ([D.from_braid([1] * k, 2) for k in range(1, 9)]
                 + [D.from_braid([1, 2] * k, 3) for k in range(1, 6)]
                 + [build(basis) for basis in conway.BASIS_VERTICES])

    @staticmethod
    def derived(d):
        out = [d, D.simplify(d)] + [m for m, _ in D.r3_moves(d)]
        for c in range(d.n):
            out += [D.smooth(d, c, kind) for kind in "AB"]
        return out

    def test_corpus_has_links_loops_and_split_pieces(self):
        assert any(D.components(d) > 1 and not d.loops for d in self.CLOSURES)
        assert any(d.loops for d in self.CLOSURES)
        assert any(len(D.graph_components(d)) > 1 for d in self.CLOSURES)
        assert any(D.r3_moves(d) for d in self.CLOSURES)

    @pytest.mark.parametrize("sym", SYMBOLS)
    def test_symbols(self, sym):
        d = build(sym)
        assert D.canonical_code(d) == brute_canonical_code(d)

    def test_closures_and_their_moves(self):
        for d in self.CLOSURES:
            for e in self.derived(d):
                assert D.canonical_code(e) == brute_canonical_code(e)

    def test_plug_names_grow_on_demand(self, monkeypatch):
        # a code's text comes from a list of "id.slot" names that grows
        # as codes need it: start it empty, then outgrow it
        monkeypatch.setattr(D, "_NAMES", [])
        rng = random.Random(64)
        big = D.from_braid([rng.choice((1, -1, 2, -2)) for _ in range(70)], 3)
        assert len(D.graph_components(big)) == 1 and big.n > 64
        for d in (build("3"), big, build("2 2")):
            assert D.canonical_code(d) == brute_canonical_code(d)

    def test_symmetric_inputs(self):
        for d in self.SYMMETRIC:
            # several starts tie on every row up to the last one
            codes = [code_from(d, c, side) for c in range(d.n) for side in (0, 2)]
            assert codes.count(min(codes)) > 1
            assert D.canonical_code(d) == brute_canonical_code(d)


class TestR3AgainstEveryArc:
    """One slide per triangle: the every-arc slides, each move once."""

    CORPUS = ([d for c in TestCanonicalCodeOracle.CLOSURES
               for d in (c, D.simplify(c))]
              + [build(s) for s in SYMBOLS])

    def test_corpus_slides(self):
        assert sum(1 for d in self.CORPUS if D.r3_moves(d)) >= 20
        assert any(len(D.r3_moves(d)) > 1 for d in self.CORPUS)

    def test_each_move_comes_once(self):
        for d in self.CORPUS:
            moves = [m for m, _ in D.r3_moves(d)]
            every = r3_moves_every_arc(d)
            # the top and the bottom strand of a triangle slide alike
            assert len(every) == 2 * len(moves)
            assert ({D.canonical_code(m) for m in moves}
                    == {D.canonical_code(m) for m in every})
            adjs = [tuple(m.adj) for m in moves]
            assert len(adjs) == len(set(adjs))

    def test_slides_are_involutive(self):
        for d in self.CORPUS:
            code = D.canonical_code(d)
            for m, undo in D.r3_moves(d):
                back = D.r3_moves(m)
                assert code in {D.canonical_code(b) for b, _ in back}
                # undo leaves out exactly the slide back to d
                kept = {tuple(b.adj) for b, _ in D.r3_moves(m, undo)}
                assert [D.canonical_code(b) for b, _ in back
                        if tuple(b.adj) not in kept] == [code]

    def test_labelled_order_is_the_relabelled_order(self):
        # slides built in one labelling, listed in the order of the
        # slides of another: a random one and the canonical one
        rng = random.Random(22)
        checked = 0
        for d in self.CORPUS:
            ids = list(range(d.n))
            rng.shuffle(ids)
            canonical = {}
            D.canonical_code(d, canonical)
            for labels in ({c: 4 * ids[c] + rng.choice((0, 2))
                            for c in range(d.n)}, canonical):
                rel = D.relabel(d, labels)
                moves = D.r3_moves(d, None, labels)
                assert ([D.relabel(m, labels).adj for m, _ in moves]
                        == [m.adj for m, _ in D.r3_moves(rel)])
                for m, undo in moves:
                    # the undo plug names the same triangle in both
                    back = labels[undo >> 2] ^ (undo & 3)
                    assert ([D.relabel(x, labels).adj
                             for x, _ in D.r3_moves(m, undo, labels)]
                            == [x.adj for x, _ in
                                D.r3_moves(D.relabel(m, labels), back)])
                    checked += 1
        assert checked > 60


class TestFuseAgainstWalk:
    """fuse walks the connector chains only; walk_fuse walks every arc
    from every surviving plug."""

    @staticmethod
    def pairs(rng, plugs):
        rng.shuffle(plugs)
        return list(zip(plugs[::2], plugs[1::2]))

    def test_random_fusions(self):
        rng = random.Random(22)
        cases = []
        # plug tables as dicts, with any of their plugs fused
        for d in mixed_closures(9, 80):
            for _ in range(4):
                k = rng.randint(1, 2 * d.n)
                cases.append((dict(enumerate(d.adj)), self.pairs(
                    rng, rng.sample(range(4 * d.n), 2 * k))))
        # arc dicts over corner names and tuples as well as plugs, in
        # a random key order
        names = (list(D.CORNERS) + list(range(16))
                 + [("v", v, c) for v in range(3) for c in D.CORNERS])
        for _ in range(400):
            keys = rng.sample(names, 2 * rng.randint(1, len(names) // 2))
            arcs = {}
            for a, b in self.pairs(rng, list(keys)):
                arcs[a], arcs[b] = b, a
            order = list(arcs)
            rng.shuffle(order)
            arcs = {k: arcs[k] for k in order}
            k = rng.randint(1, len(keys) // 2)
            cases.append((arcs, self.pairs(rng, rng.sample(keys, 2 * k))))
        closed = whole = 0
        for arcs, pairs in cases:
            out, loops = D.fuse(arcs, pairs)
            want, want_loops = walk_fuse(arcs, pairs)
            assert out == want
            assert loops == want_loops
            closed += len(loops) > 1
            whole += not out
        # several loops at once, and fusions that leave no arc
        assert closed > 50 and whole > 20


class TestScanWalk:
    """The contract of scan_walk: the cut arc is the one matching left,
    and every state is carried through exactly one move per step."""

    CLOSURES = mixed_closures(26, 80)
    # simplified closures include diagrams without crossings
    CORPUS = ([build(s) for s in BATTERY] + CLOSURES
              + [D.simplify(d) for d in CLOSURES])

    def test_contract(self):
        kinds = {"empty": 0, "loops": 0, "split": 0, "kink": 0}
        for d in self.CORPUS:
            kinds["empty"] += d.n == 0
            kinds["loops"] += d.loops > 0
            kinds["split"] += len(D.graph_components(d)) > 1
            kinds["kink"] += any(q >> 2 == p >> 2 for p, q in enumerate(d.adj))
            cut, steps = D.scan_walk(d)
            assert (cut == ()) == (d.n == 0)
            assert [c for c, *_ in steps] == D.scan_order(d)
            if d.n:
                p, q = cut
                assert steps[-1][3] == [{p: q, q: p}]
            states = [1]
            for _, _, ends, mats, moves in steps:
                assert len(moves) == len(states)
                assert all(sorted(m) == ends for m in mats)
                here = [0] * len(mats)
                for v, row in zip(states, moves):
                    assert len(row) == 2
                    for j, _ in row:
                        here[j] += v
                states = here
            assert sum(states) == 2 ** d.n
        # the corpus holds every edge case
        assert min(kinds.values()) > 0, kinds

    def test_agrees_with_the_fuse_walk(self):
        # cut, and per step pairs, ends, matchings and moves with their
        # loop plugs, as fusing each matching with each smoothing gives
        loops = 0
        for d in self.CORPUS:
            got = D.scan_walk(d)
            assert got == fuse_scan_walk(d)
            loops += sum(len(ls) for *_, moves in got[1]
                         for row in moves for _, ls in row)
        assert loops > 500


class TestPlugTable:
    """Every diagram the package returns holds its arcs as a plug table:
    a list of length 4n that is an involution with no fixed point."""

    CORPUS = [build(s) for s in SYMBOLS] + mixed_closures(5, 120)

    @staticmethod
    def made_from(d):
        labels = {}
        code = D.canonical_code(d, labels)
        out = [d, mirror(d), D.relabel(d, labels), D.from_code(code)]
        out += [m for m, _ in D.r3_moves(d)]
        out += [D.smooth(d, c, kind) for c in range(d.n) for kind in "AB"]
        e = D.reduce_once(d)
        while e is not None:
            out.append(e)
            e = D.reduce_once(e)
        return out

    def test_every_constructor(self):
        for d in self.CORPUS:
            for e in self.made_from(d):
                assert type(e.adj) is list
                assert sorted(e.adj) == list(range(4 * e.n))
                assert all(q != p and e.adj[q] == p
                           for p, q in enumerate(e.adj))


class TestFacesPin:
    """The plug walk lists the dart walk's faces in the same order, each
    by the plugs its darts leave from."""

    def test_same_list(self):
        for d in TestR3AgainstEveryArc.CORPUS:
            assert D.faces(d) == [tuple(p for p, _ in face)
                                  for face in dart_faces(d)]


class TestCorpus:
    @pytest.mark.parametrize("sym", SYMBOLS)
    def test_structure(self, sym):
        d = build(sym)
        assert d.loops == 0
        assert d.n == symbol_crossings(conway.parse(sym))
        assert len(D.faces(d)) == d.n + 2
        fs, colors = checkerboard(d)
        assert sorted(set(colors)) == [0, 1]

    @pytest.mark.parametrize("sym", SYMBOLS)
    def test_code_stable_under_relabeling(self, sym):
        d = build(sym)
        code = D.canonical_code(d)
        for seed in (1, 2, 3):
            assert D.canonical_code(shuffled(d, seed)) == code

    @pytest.mark.parametrize("sym", SYMBOLS)
    def test_code_stable_under_turns(self, sym):
        d = build(sym)
        code = D.canonical_code(d)
        for seed in (1, 2, 3):
            assert D.canonical_code(turned(d, seed)) == code
            assert D.canonical_code(turned(shuffled(d, seed), seed)) == code

    def test_closure_codes_stable_under_turns(self):
        for i, d in enumerate(mixed_closures(9, 60)):
            code = D.canonical_code(d)
            assert D.canonical_code(turned(d, i)) == code

    @pytest.mark.parametrize("sym", SYMBOLS)
    def test_mirror_involution(self, sym):
        # mirror turns every slot one step, so twice is the half turn
        # p -> p ^ 2 of every crossing, plug for plug
        d = build(sym)
        twice = mirror(mirror(d))
        assert twice.adj == [d.adj[p ^ 2] ^ 2 for p in range(4 * d.n)]
        assert mirror(mirror(twice)).adj == d.adj
        assert D.canonical_code(twice) == D.canonical_code(d)

    @pytest.mark.parametrize("sym", SYMBOLS)
    def test_transpose_involution(self, sym):
        node = conway.parse(sym)
        for part in node.slots if isinstance(node, conway.Poly) else [node]:
            t = D._expr_tangle(part)
            assert list(D.transpose(D.transpose(t)).arcs.items()) == \
                list(t.arcs.items())

    def test_mirror_matches_negated_symbol(self):
        for sym in ("3", "2 2", "2 1 1", "5", "3,3,-3"):
            lhs = D.canonical_code(mirror(build(sym)))
            rhs = D.canonical_code(build(render(
                conway.mirror_expr(conway.parse(sym)))))
            assert lhs == rhs

    def test_codes_are_pinned(self):
        # sha256 of the newline-joined canonical codes of SYMBOLS and
        # the integer members of the conway tests' corpus.  A "-( )"
        # group builds as the mirror of its tree, which may turn its
        # crossings by a half from an earlier build; the codes may not
        # move.
        syms = SYMBOLS + [instance(t) for t in CORPUS]
        codes = [D.canonical_code(build(s)) for s in syms]
        digest = hashlib.sha256("\n".join(codes).encode()).hexdigest()
        assert digest == ("c2c30cc042e7e14f68941ab9688b17e6"
                          "18d5fc44f8e529773c2d29db5a7bf75e")

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

    def test_frames_are_pinned(self):
        # every polyhedral build reads this table, so it may not move
        digest = hashlib.sha256(repr(D.BASIS_FRAMES).encode()).hexdigest()
        assert digest == ("1c6bb0c6c27d679e7a69079783e0f8ce"
                          "90c673138eb422ca76ff28e78d88568e")

    @pytest.mark.parametrize("basis", sorted(D._BASIS_GRAPHS))
    def test_bases_are_polyhedral(self, basis):
        # a plane graph (V - E + F = 2 over the faces its rotation
        # system traces) with every vertex degree and face size >= 3
        edges, rot = D._BASIS_GRAPHS[basis]
        for u, r in enumerate(rot):
            assert sorted(r) == [i for i, e in enumerate(edges)
                                 for x in e if x == u]
        # a dart (u, i) leaves u along edge i; its face goes on along
        # the edge before i around the far end
        darts = {(u, i) for u, r in enumerate(rot) for i in r}
        sizes = []
        while darts:
            u, i = start = min(darts)
            size = 0
            while (u, i) in darts:
                darts.remove((u, i))
                size += 1
                a, b = edges[i]
                v = b if a == u else a
                u, i = v, rot[v][rot[v].index(i) - 1]
            assert (u, i) == start
            sizes.append(size)
        assert len(rot) - len(edges) + len(sizes) == 2
        assert min(map(len, rot)) >= 3 and min(sizes) >= 3

    # sha256 of the newline-joined canonical codes of basis + "." * v +
    # "2 1" over every vertex v.  A 2 1 slot sees the orientation in
    # which it is substituted, so transposing the slot tangle of any
    # one vertex the other way changes the digest of its basis.
    SUBSTITUTION_PINS = {
        "6*": "1d23f07f045d9dcf5ef1e63b0e14df68936468a1b1a5afd599fc8e885b20852b",
        "8*": "2241b1c620f7a2e878afa4455d08568ced01a9bd15d27a71942bf63e947a9910",
        "9*": "b4d4737c2fd14f3f8f55fd7a645165cf553c6f1beb8be898681639dcf8ed6a40",
        "10*": "b6ec74bdb1469f986aa36bec3650818a14efa284e4087cd0ca35418084570386",
        "10**": "33926272175c09eb3ba0a44ff410ded27d0b815cc8f0183a33008f4d4afc577a",
        "10***": "539ca0618b36dfaad7db6bb11f822e86d13d80c2ed031ab00471335607988f89",
    }

    @pytest.mark.parametrize("basis", sorted(SUBSTITUTION_PINS))
    def test_substitution_convention_is_pinned(self, basis):
        codes = [D.canonical_code(build(basis + "." * v + "2 1"))
                 for v in range(conway.BASIS_VERTICES[basis])]
        digest = hashlib.sha256("\n".join(codes).encode()).hexdigest()
        assert digest == self.SUBSTITUTION_PINS[basis]


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
        assert d.n == symbol_crossings(conway.parse(sym))
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
