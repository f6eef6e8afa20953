"""Planar link diagrams built from Conway symbols.

Conventions used throughout:

* a crossing has four plugs numbered 0..3 counter clockwise and the
  understrand always occupies plugs 0 and 2 (the overstrand 1 and 3),
  so no separate crossing type is stored: gluing encodes everything
* the single positive crossing tangle attaches its corners as
  SE->0, NE->1, NW->2, SW->3; the negative one as NE->0, NW->1,
  SW->2, SE->3
* the A smoothing joins plugs (0,1) and (2,3); the B smoothing joins
  (0,3) and (1,2)
* flipping a tangle over its NW-SE diagonal swaps plugs 1 and 3 and
  corners NE and SW
* basic polyhedra are medial graphs: 6* of K4, 8* of the 4-wheel,
  9* of the triangular prism, 10* of the 5-wheel, 10** of the prism
  with one square diagonal, 10*** of the octahedron minus two disjoint
  edges that share no face (the only other planar graph with V=F=6,
  E=10 and minimum degree and face size 3, so the three 10-vertex
  basic polyhedra are exactly the medials of these dual pairs); each
  graph is given as a rotation system, its edge list and every
  vertex's edges in counter clockwise order

Plugs are encoded as 4*crossing + slot; tangles additionally carry the
free corner plugs "NW", "SW", "SE", "NE".

A closed diagram is its plug table: adj[p] is the plug at the other
end of p's arc, a list of length 4n that is an involution with no
fixed point.  Every constructor fills the whole table and nothing
changes it afterwards, so a walk "from the smallest plug" is the only
order a result can depend on.  Tangles keep a dict of arcs, since
their corners are names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from qalinks import conway
from qalinks.conway import Poly, Prod, Ram, Seq


class DisconnectedDiagramError(ValueError):
    pass


class EmptyWordError(ValueError):
    pass


CORNERS = ("NW", "SW", "SE", "NE")  # counter clockwise, = vertex darts 0..3


def _pair(arcs, a, b):
    arcs[a] = b
    arcs[b] = a


def fuse(arcs, pairs):
    """Join arcs through connector plugs and drop them.

    pairs lists plugs to be fused two at a time; each listed plug
    disappears and its arc continues into its partner's arc. Returns
    the new arc dict and a list holding one listed plug of each closed
    loop that formed.  The two plugs of a pair are distinct.

    Only the connector chains are walked: the surviving arcs are copied
    as they are, and the two outer ends of each open chain are joined.
    A chain that closes on itself is a new loop, listed by its first
    plug in the order of pairs.
    """
    link = {}
    for a, b in pairs:
        link[a] = b
        link[b] = a
    out = dict(arcs)
    return out, _fuse_chains(out, link)


def _fuse_chains(out, link):
    """fuse in place on the arc dict out, link mapping each connector to
    its partner; returns the loops, each by its first plug in link."""
    loops = []
    for p in link:
        if p not in out:  # walked with an earlier plug of its chain
            continue
        # along p's arc until the chain leaves the connectors or closes
        q = out.pop(p)
        while q in link:
            del out[q]
            q = link[q]
            if q == p:
                loops.append(p)
                break
            q = out.pop(q)
        else:
            # the chain is open: from p's partner to its other outer end
            r = out.pop(link[p])
            while r in link:
                del out[r]
                r = out.pop(link[r])
            out[q], out[r] = r, q
    return loops


@dataclass
class Tangle:
    n: int
    arcs: dict
    loops: int = 0


def int_tangle(value: int) -> Tangle:
    """Horizontal chain of |value| crossings, sign of value each."""
    if value == 0:
        return Tangle(0, {"NW": "NE", "NE": "NW", "SW": "SE", "SE": "SW"}, 0)
    t = _one_crossing(1 if value > 0 else -1)
    for _ in range(abs(value) - 1):
        t = add(t, _one_crossing(1 if value > 0 else -1))
    return t


def _one_crossing(sign):
    if sign > 0:
        corner_slot = {"SE": 0, "NE": 1, "NW": 2, "SW": 3}
    else:
        corner_slot = {"NE": 0, "NW": 1, "SW": 2, "SE": 3}
    arcs = {}
    for corner, slot in corner_slot.items():
        _pair(arcs, corner, slot)
    return Tangle(1, arcs)


_FLIP = (0, 3, 2, 1)  # the NW-SE diagonal swaps slots 1 and 3


def _tangle_arcs(t: Tangle, ids, slots=range(4), corners={}):
    """t's arcs with plug 4c + s renamed 4 * ids[c] + slots[s] and each
    corner k renamed corners.get(k, k)."""
    m = dict(zip(CORNERS, CORNERS), **corners)
    m.update(enumerate([4 * e + s for e in ids for s in slots]))
    return {m[a]: m[b] for a, b in t.arcs.items()}


def add(a: Tangle, b: Tangle) -> Tangle:
    """Horizontal sum: b glued to the right of a."""
    left = _tangle_arcs(a, range(a.n), corners={"NE": "aNE", "SE": "aSE"})
    right = _tangle_arcs(b, range(a.n, a.n + b.n),
                         corners={"NW": "bNW", "SW": "bSW"})
    arcs, loops = fuse({**left, **right}, [("aNE", "bNW"), ("aSE", "bSW")])
    return Tangle(a.n + b.n, arcs, a.loops + b.loops + len(loops))


def transpose(t: Tangle) -> Tangle:
    """Flip over the NW-SE diagonal, keeping over/under as drawn."""
    arcs = _tangle_arcs(t, range(t.n), _FLIP, {"NE": "SW", "SW": "NE"})
    return Tangle(t.n, arcs, t.loops)


@dataclass(slots=True)
class LinkDiagram:
    n: int
    adj: list
    loops: int = 0

    def __repr__(self):
        return "LinkDiagram(n=%d, loops=%d)" % (self.n, self.loops)


def _closed(n, arcs, loops) -> LinkDiagram:
    """The diagram of an arc dict over the plugs of n crossings, as
    fuse returns it."""
    return LinkDiagram(n, [arcs[p] for p in range(4 * n)], loops)


def closure_numerator(t: Tangle) -> LinkDiagram:
    arcs, loops = fuse(t.arcs, [("NW", "NE"), ("SW", "SE")])
    return _closed(t.n, arcs, t.loops + len(loops))


def _expr_tangle(node) -> Tangle:
    if isinstance(node, Seq):
        t = None
        for term in node.terms:
            nxt = int_tangle(term)
            t = nxt if t is None else add(transpose(t), nxt)
        return t
    if isinstance(node, Prod):
        t = _expr_tangle(node.factors[0])
        for f in node.factors[1:]:
            t = add(transpose(t), _expr_tangle(f))
        return t
    if isinstance(node, Ram):
        t = None
        for part in node.parts:
            nxt = transpose(_expr_tangle(part))
            t = nxt if t is None else add(t, nxt)
        return t
    raise TypeError("cannot use %s as a tangle" % type(node).__name__)


def build(symbol) -> LinkDiagram:
    """Diagram of a Conway symbol (text or syntax tree)."""
    node = conway.parse(symbol) if isinstance(symbol, str) else symbol
    if isinstance(node, Poly):
        return _build_poly(node)
    return closure_numerator(_expr_tangle(node))


# --- basic polyhedra -------------------------------------------------

def _medial_frames(edges, rot):
    """Vertex frames of the medial map of a plane graph.

    The graph is a rotation system: edge i joins edges[i] = (u, v), and
    rot[u] lists u's edges counter clockwise as indices into edges,
    starting at any one of them.  Returns a list over medial vertices
    (one per edge, in the order given) of 4-tuples frame[k] =
    (other_vertex, other_dart) so that dart k of vertex i attaches to
    dart frame[i][k][1] of vertex frame[i][k][0]. Medial edges are the
    corners (u, a, b) of the graph, where edge b follows edge a counter
    clockwise around vertex u. A corner is dart 1 or 3 of medial vertex
    a and dart 0 or 2 of medial vertex b, so every medial edge joins an
    odd dart to an even one, which is what makes the filled polyhedra
    alternating.
    """
    def around(u, i):
        r = rot[u]
        j = r.index(i)
        return r[(j + 1) % len(r)], r[j - 1]
    # medial rotation: for edge i = (u, v) the four neighbors counter
    # clockwise are prev_v, next_u, prev_u, next_v, where next/prev are
    # the rotation neighbors of the edge at each endpoint
    ends = {}
    for i, (u, v) in enumerate(edges):
        nu, pu = around(u, i)
        nv, pv = around(v, i)
        for k, corner in enumerate([(v, pv, i), (u, i, nu),
                                    (u, pu, i), (v, i, nv)]):
            ends.setdefault(corner, []).append((i, k))
    # each corner occurs at its two medial vertices once each
    frames = [[None] * 4 for _ in edges]
    for (i, k), (j, kj) in ends.values():
        frames[i][k] = (j, kj)
        frames[j][kj] = (i, k)
    return [tuple(frame) for frame in frames]


def _wheel(n):
    """Hub 0 and rim 1..n counter clockwise; edge 2i - 2 is the rim
    edge (i, i + 1) and edge 2i - 1 the spoke (i + 1, 0)."""
    edges = []
    for i in range(1, n + 1):
        edges += [(i, i % n + 1), (i % n + 1, 0)]
    rot = [list(range(1, 2 * n, 2))]  # the hub meets every spoke
    # rim vertex i meets the rim edge on, the spoke and the rim edge back
    rot += [[(2 * i - k) % (2 * n) for k in (2, 3, 4)]
            for i in range(1, n + 1)]
    return edges, rot


# Each basis as (edges, rot), the rotation system _medial_frames reads.
# The edge order numbers the medial vertices, which the substitution
# convention below reads, so no list may be reordered; for K4 and the
# wheels it is a zigzag hamiltonian cycle (consecutive medial vertices
# adjacent).  In the prisms and the octahedron 0, 1, 2 is the outer
# triangle (less one edge in the octahedron) and 3, 4, 5 the inner one.
_PRISM = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
          (0, 3), (1, 4), (2, 5)]
_BASIS_GRAPHS = {
    "6*": ([(1, 2), (2, 0), (2, 3), (3, 0), (3, 1), (1, 0)],
           [[1, 3, 5], [0, 5, 4], [2, 1, 0], [2, 4, 3]]),
    "8*": _wheel(4),
    "9*": (_PRISM, [[0, 6, 2], [1, 7, 0], [2, 8, 1],
                    [3, 5, 6], [4, 3, 7], [5, 4, 8]]),
    "10*": _wheel(5),
    "10**": (_PRISM + [(0, 4)], [[0, 9, 6, 2], [1, 7, 0], [2, 8, 1],
                                 [3, 5, 6], [4, 3, 9, 7], [5, 4, 8]]),
    "10***": ([(1, 2), (2, 0), (3, 4), (4, 5), (0, 3),
               (0, 4), (1, 4), (1, 5), (2, 5), (2, 3)],
              [[5, 4, 1], [0, 7, 6], [1, 9, 8, 0],
               [9, 4, 2], [6, 3, 2, 5], [7, 8, 3]]),
}
BASIS_FRAMES = {basis: _medial_frames(edges, rot)
                for basis, (edges, rot) in _BASIS_GRAPHS.items()}


# Substitution convention.  A one-crossing tangle is fixed by the diagonal
# transpose, so the all-one filling of each basic polyhedron cannot see the
# orientation in which slot tangles are substituted; larger tangles can.
# The slot tangle of every odd-numbered vertex is transposed before
# insertion.  For the octahedral basis this rule was pinned against links
# whose other minimal diagrams are pretzel or product forms with
# independently checkable invariants; the remaining bases reuse it over the
# construction-order numbering.

def _build_poly(node: Poly) -> LinkDiagram:
    arcs = {}
    total = loops = 0
    for v, slot in enumerate(node.slots):
        t = _expr_tangle(slot)
        if v % 2:
            t = transpose(t)
        arcs.update(_tangle_arcs(t, range(total, total + t.n),
                                 corners={c: ("v", v, c) for c in CORNERS}))
        total += t.n
        loops += t.loops
    # tangle corners run clockwise against the counterclockwise frame
    # directions; this is the embedding chirality that makes the
    # octahedral knot anchors come out unmirrored
    pairs = [(("v", v, CORNERS[-k % 4]), ("v", w, CORNERS[-j % 4]))
             for v, frame in enumerate(BASIS_FRAMES[node.basis])
             for k, (w, j) in enumerate(frame) if (v, k) < (w, j)]
    arcs, extra = fuse(arcs, pairs)
    return _closed(total, arcs, loops + len(extra))


# --- braids ----------------------------------------------------------

def from_braid(word, strands: int) -> LinkDiagram:
    """Trace closure of a braid word, generators as signed integers."""
    if not word:
        raise EmptyWordError("empty braid word")
    if strands < 2:
        raise ValueError("need at least two strands")
    for g in word:
        if g == 0 or abs(g) >= strands:
            raise ValueError("generator %r out of range" % (g,))
    arcs = {}
    boundary = [("top", k) for k in range(strands)]
    n = 0
    for g in word:
        i = abs(g) - 1
        c = n
        n += 1
        if g > 0:
            nw, ne, sw, se = 1, 0, 2, 3
        else:
            nw, ne, sw, se = 2, 1, 3, 0
        _pair(arcs, boundary[i], 4 * c + nw)
        _pair(arcs, boundary[i + 1], 4 * c + ne)
        boundary[i] = 4 * c + sw
        boundary[i + 1] = 4 * c + se
    for k in range(strands):
        _pair(arcs, ("bot", k), boundary[k])
    pairs = [(("top", k), ("bot", k)) for k in range(strands)]
    arcs, loops = fuse(arcs, pairs)
    return _closed(n, arcs, len(loops))


# --- diagram operations ----------------------------------------------

def _through(p):
    return p - p % 4 + (p + 2) % 4


def _strands(d: LinkDiagram):
    """Each component's walk from its smallest plug, as the list of
    plugs where it enters crossings."""
    adj, seen, out = d.adj, bytearray(4 * d.n), []
    for p0 in range(4 * d.n):
        if seen[p0]:
            continue
        entries, p = [], p0
        while True:
            q = adj[p]
            entries.append(q)
            seen[p] = seen[q] = 1
            p = _through(q)
            if p == p0:
                break
        out.append(entries)
    return out


def entry_plugs(d: LinkDiagram):
    """Plugs where the chosen traversal enters a crossing.

    Components are oriented in the order their smallest plug appears.
    """
    return set().union(*_strands(d))


def components(d: LinkDiagram) -> int:
    return d.loops + len(_strands(d))


def crossing_signs(d: LinkDiagram):
    """Sign of every crossing under the traversal orientation."""
    entries = entry_plugs(d)
    # the understrand enters at slot 0 or 2, the overstrand at 1 or 3;
    # the crossing is positive when the over entry is one slot clockwise
    # of the under entry: 0 and 3, or 2 and 1
    return [1 if (4 * c in entries) == (4 * c + 3 in entries) else -1
            for c in range(d.n)]


def writhe(d: LinkDiagram) -> int:
    return sum(crossing_signs(d))


def is_alternating(d: LinkDiagram) -> bool:
    return all((a + b) % 2 == 1 for a, b in enumerate(d.adj))


def scan_order(d: LinkDiagram):
    """Crossings in the order a planar scan adds them: greedily the one
    with the most arcs to placed crossings, ties to the lowest index,
    from crossing 0, so the open ends stay few."""
    order, touch = [], [0] * d.n  # arcs to placed crossings, -1 if placed
    for _ in range(d.n):
        c = max(range(d.n), key=touch.__getitem__)  # the first of the most
        order.append(c)
        touch[c] = -1
        for q in range(4 * c, 4 * c + 4):
            e = d.adj[q] // 4
            if touch[e] >= 0:
                touch[e] += 1
    return order


def scan_walk(d: LinkDiagram):
    """(cut, steps): the planar matching walk of D. Bar-Natan's Fast
    Khovanov homology computations (arXiv:math/0606318), which the
    bracket and the Khovanov scan both fold.

    The crossings are added in scan_order, so the open ends stay few.
    The placed part of a smoothing state is a planar matching of its
    open ends plus closed loops, and the walk lists the matchings, not
    the 2^n states.  The A smoothing joins a crossing's plugs (0, 1)
    and (2, 3), the B smoothing (0, 3) and (1, 2).  The cut arc is
    never fused: it is the one whose earlier end scan_order places
    last, ties to the smallest plug, so the fewest steps carry its open
    ends, and the one matching left at the end is {p: q, q: p} for
    cut = (p, q), p < q.  cut is () when there are no crossings.

    steps holds (c, pairs, ends, mats, moves) per crossing c of
    scan_order: pairs, the arcs from c to crossings placed before it
    and c's own kinks once each, the cut arc never; ends, the sorted
    open ends once c is placed; mats, the matchings after c as arc
    dicts over ends (before the first step, only the empty one);
    moves[i], for matching i before c, one (index in mats, loop plugs)
    per smoothing of c, A then B, as fuse glues it on through pairs.
    """
    adj, order, cut, placed = d.adj, scan_order(d), (), set()
    for c in reversed(order):  # the arcs whose earlier end is c
        placed.add(c)
        arcs = [tuple(sorted((q, adj[q]))) for q in range(4 * c, 4 * c + 4)
                if adj[q] >> 2 in placed]
        if arcs:
            cut = min(arcs)
            break
    placed, ends, mats, steps = set(), [], [{}], []
    for c in order:
        placed.add(c)
        plugs = range(4 * c, 4 * c + 4)
        pairs = [(q, adj[q]) for q in plugs if adj[q] >> 2 in placed
                 and (adj[q] >> 2 != c or q < adj[q]) and q not in cut]
        link = dict(pairs + [(r, q) for q, r in pairs])
        ends = sorted({*ends, *plugs}.difference(link))
        p0, p1, p2, p3 = plugs
        smoothings = ({p0: p1, p1: p0, p2: p3, p3: p2},   # A
                      {p0: p3, p3: p0, p1: p2, p2: p1})   # B
        ids, new_mats, moves = {}, [], []
        for m in mats:
            row = []
            for s in smoothings:
                arcs = {**m, **s}
                loops = _fuse_chains(arcs, link)
                key = tuple(map(arcs.__getitem__, ends))
                j = ids.setdefault(key, len(new_mats))
                if j == len(new_mats):
                    new_mats.append(dict(zip(ends, key)))
                row.append((j, loops))
            moves.append(row)
        mats = new_mats
        steps.append((c, pairs, ends, mats, moves))
    return cut, steps


def state_circles(d: LinkDiagram, state: int):
    """Circles of the smoothing state given as a bitmask, free loops left out.

    Bit c of state picks the B smoothing at crossing c, a clear bit the
    A smoothing.  Each circle is the tuple of plugs state_circle meets
    walking from its smallest plug along the arc, then across the
    smoothing to the partner plug (slot s^1 under A, 3-s under B), and
    so on; circles come in the order of their smallest plugs.  A circle
    that a state change leaves untouched keeps the identical tuple.

    So the index of a circle is the number of circles whose smallest
    plug is smaller, and the homology module relies on what that gives
    when bit c is set, both to map each cube edge and to label every
    state but state 0 from a parent state without walking it.  If
    circles a < b of the state meet crossing c they merge, at index a,
    and each circle past b moves down one.  If one circle a meets it
    twice it splits: the part holding a's smallest plug stays at a, the
    other part takes the index w it gets among the new circles, and
    each circle from w on moves up one.  The circle through plug 0 is
    always circle 0.
    """
    seen = bytearray(4 * d.n)
    circles = []
    for p0 in range(4 * d.n):
        if not seen[p0]:
            circle = state_circle(d, state, p0)
            for p in circle:
                seen[p] = 1
            circles.append(tuple(circle))
    return circles


def state_circle(d: LinkDiagram, state: int, p0: int):
    """The plugs of the state's circle through p0, walked from p0 as
    state_circles walks them."""
    adj, circle, p = d.adj, [], p0
    while True:
        q = adj[p]
        circle += (p, q)
        p = q ^ 3 if state >> (q >> 2) & 1 else q ^ 1
        if p == p0:
            return circle


def circle_labels(d: LinkDiagram, state: int):
    """Plug -> index of its circle in state_circles(d, state), a list."""
    lab = [0] * (4 * d.n)
    for i, circle in enumerate(state_circles(d, state)):
        for p in circle:
            lab[p] = i
    return lab


def _drop(d: LinkDiagram, join, dead) -> LinkDiagram:
    """d without the crossings dead, a sorted list of one or two,
    each plug pair (a, b) of join fused as fuse fuses it: a disappears
    and its arc continues into b's.  join holds every plug of dead.

    The other crossings keep their order: a plug above a dropped
    crossing moves down by 4 per dropped crossing below it.  So a
    table reached by several drops depends only on which crossings are
    gone, not on the order they went in; moving the last crossing into
    a dropped slot would make it depend on that order.  The QA search
    relies on this rule.  It smooths and reduces each orbit member in
    the frame the member arrived in and codes each plug table once, so
    a crossing smoothed at two members a slide apart must reduce to one
    table, whichever kinks and bigons each reduction met first.

    The table is copied by slices and renumbered in one pass; only the
    chains through the dropped plugs are walked, so at most four
    entries are rewritten, and each chain that closes on itself is a
    new loop."""
    adj, link = d.adj, {}
    for a, b in join:
        link[a] = b
        link[b] = a
    lo, hi = 4 * dead[0] + 4, 4 * dead[-1] + 4
    top = 4 * len(dead)

    def moved(q):  # q's plug once the dead crossings are gone
        return q if q < lo else q - 4 if q < hi else q - top

    # an entry that leads into a dead crossing stays stale until the
    # walk below overwrites it, as the outer end of a chain
    out = [q if q < lo else q - 4 if q < hi else q - top
           for q in adj[:lo - 4] + adj[lo:hi - 4] + adj[hi:]]
    loops, done = d.loops, set()
    for p in link:
        if p in done:
            continue
        # along p's arc until the chain leaves the connectors or closes
        done.add(p)
        q = adj[p]
        while q in link:
            done.add(q)
            q = link[q]
            if q == p:
                loops += 1
                break
            done.add(q)
            q = adj[q]
        else:
            # the chain is open: from p's partner to its other outer end
            r = link[p]
            done.add(r)
            r = adj[r]
            while r in link:
                done.add(r)
                r = link[r]
                done.add(r)
                r = adj[r]
            q, r = moved(q), moved(r)
            out[q] = r
            out[r] = q
    return LinkDiagram(d.n - len(dead), out, loops)


def smooth(d: LinkDiagram, c: int, kind: str) -> LinkDiagram:
    """Replace crossing c by the A or B smoothing; the other crossings
    keep their order, as _drop keeps it."""
    if kind == "A":
        join = [(4 * c, 4 * c + 1), (4 * c + 2, 4 * c + 3)]
    elif kind == "B":
        join = [(4 * c, 4 * c + 3), (4 * c + 1, 4 * c + 2)]
    else:
        raise ValueError(kind)
    return _drop(d, join, [c])


# Plugs a and b sit on one crossing iff a ^ b < 4, and their slots are
# an odd distance apart iff (a ^ b) & 1.

def reduce_once(d: LinkDiagram):
    """One Reidemeister 1 or 2 reduction, or None: the kink with the
    smallest plug if there is one, else the bigon with the smallest
    plug.  One pass over the table finds either; the other crossings
    keep their order, as _drop keeps it."""
    adj, bigon = d.adj, None
    for a, b in enumerate(adj):
        if a > b:
            continue
        if a ^ b < 4:
            if (a ^ b) & 1:
                # the smoothing that joins the kink's two ends splits
                # it off as a loop, which R1 removes
                s = smooth(d, a >> 2, "A" if (a + b) % 4 == 1 else "B")
                return LinkDiagram(s.n, s.adj, s.loops - 1)
        # reducible only when both strands stay on one level, which
        # makes each bigon arc join slots of equal parity; the first
        # such arc with a second arc between the two crossings,
        # adjacent on both, so its slots are of equal parity as well
        elif bigon is None and not (a ^ b) & 1:
            for a2 in (a & ~3 | (a + 1) & 3, a & ~3 | (a - 1) & 3):
                b2 = adj[a2]
                if b2 ^ b < 4 and (b2 ^ b) & 1:
                    bigon = a, b, a2, b2
                    break
    if bigon is None:
        return None
    # both strands pass straight through both crossings
    a, b = bigon[:2]
    return _drop(d, [(p, _through(p)) for p in bigon],
                 sorted((a >> 2, b >> 2)))


def simplify(d: LinkDiagram) -> LinkDiagram:
    """Apply Reidemeister 1 and 2 reductions until none is possible."""
    while True:
        nxt = reduce_once(d)
        if nxt is None:
            return d
        d = nxt


def r3_moves(d: LinkDiagram, back=None, labels=None):
    """The diagrams one Reidemeister 3 slide away, one per triangle,
    each as a pair (move, undo), in the order of the triangles'
    smallest plugs.

    A triangular face admits a slide along a bounding arc that runs at
    the same level (over both ends or under both ends) through its two
    crossings; the arc sweeps past the third crossing.  Such a triangle
    has two same-level arcs, its top strand and its bottom strand, and
    sliding either is the same move, so only the first is returned.
    Crossings keep their internal structure, only the nine arcs around
    the triangle are rewired: each of the three strands passes the two
    crossings it meets in the opposite order afterwards.  Triangles
    that touch a crossing twice, or whose surrounding arcs loop
    straight back into the triangle, are skipped.

    undo is a plug of the move whose dart runs along the triangle left
    behind, so r3_moves(move, undo) leaves out the slide back to d.
    The triangle of d with a dart leaving plug back is skipped in the
    same way, before any arc is rewired.

    With the labels of a relabelling, the triangles come in the order
    of their smallest plugs in relabel(d, labels), whose slides are
    these moves relabelled, in the same order: a half turn of a
    crossing commutes with the face step and the straight step and
    keeps each slot's parity.  Either same-level arc of a triangle
    slides to the same plug table, so the walk may begin at any plug.
    The moves and their undo plugs stay in d's labelling either way.
    """
    adj, out = d.adj, []
    tris = [face for face in faces(d) if len(face) == 3
            and back not in face and len({p >> 2 for p in face}) == 3]
    if labels is not None:
        tris.sort(key=lambda face: min(labels[p >> 2] ^ (p & 3)
                                       for p in face))
    for face in tris:
        for i in range(3):
            p = face[i]
            q = adj[p]
            if p % 2 != q % 2:
                continue
            prev = face[(i + 2) % 3]
            nxt = face[(i + 1) % 3]
            # slid strand S runs p->q between crossings A and B; the
            # other two strands U (through A) and V (through B) cross
            # each other at C; *_tri plugs face the triangle
            sa_tri, sb_tri = p, q
            ua_tri, uc_tri = adj[prev], prev
            vb_tri, vc_tri = nxt, adj[nxt]
            sa_ext, sb_ext = _through(sa_tri), _through(sb_tri)
            ua_ext, uc_ext = _through(ua_tri), _through(uc_tri)
            vb_ext, vc_ext = _through(vb_tri), _through(vc_tri)
            tri = {sa_tri, sb_tri, ua_tri, uc_tri, vb_tri, vc_tri,
                   sa_ext, sb_ext, ua_ext, uc_ext, vb_ext, vc_ext}
            xsa, xsb = adj[sa_ext], adj[sb_ext]
            xua, xuc = adj[ua_ext], adj[uc_ext]
            xvb, xvc = adj[vb_ext], adj[vc_ext]
            if {xsa, xsb, xua, xuc, xvb, xvc} & tri:
                continue
            # the nine new arcs cover the 18 plugs of the old ones
            moved = list(adj)
            for a, b in ((xsa, sb_tri), (sb_ext, sa_ext), (sa_tri, xsb),
                         (xua, uc_tri), (uc_ext, ua_ext), (ua_tri, xuc),
                         (xvb, vc_tri), (vc_ext, vb_ext), (vb_tri, xvc)):
                _pair(moved, a, b)
            # the new triangle's darts leave sa_ext, vb_ext, uc_ext
            out.append((LinkDiagram(d.n, moved, d.loops), sa_ext))
            break
    return out


# --- faces and codes -------------------------------------------------

def faces(d: LinkDiagram):
    """Faces of the diagram, each as the tuple of plugs its darts leave
    from, in walking order; faces come in the order of their smallest
    plugs.

    A dart runs along the arc from plug p to plug adj[p], so it is
    fixed by the plug it leaves from; the next dart of the face turns
    left, leaving from the plug one step counter clockwise of adj[p].
    """
    adj, seen, out = d.adj, bytearray(4 * d.n), []
    for start in range(4 * d.n):
        if seen[start]:
            continue
        face = []
        p = start
        while not seen[p]:
            seen[p] = 1
            face.append(p)
            p = adj[p]
            p = p - 3 if p & 3 == 3 else p + 1
        out.append(tuple(face))
    return out


def canonical_code(d: LinkDiagram, labels=None) -> str:
    """Canonical text form, stable under crossing renumbering and the
    180 degree turn of single crossings. Mirror images get different
    codes. The code lists, for each crossing in canonical order, the
    plugs its four slots attach to, plus the free loop count.

    A start fixes a crossing and which of its two strand-ends leads
    (slot 0 or slot 2; the turn maps one onto the other), so two sides
    per crossing cover every labelling the code must forget. The
    pieces are read breadth first from all starts in lockstep: row i
    is written for every surviving start, and only the starts whose
    row is smallest go on to row i + 1 (Weinberg's row-by-row minimal
    code for planar maps). A start writes one row per crossing of its
    piece, so the first start to run out of crossings holds the
    smallest piece code, a prefix of every survivor's; that piece is
    set aside and the rest, if any, is read again, which lists the
    piece codes in sorted order.

    The code is unoriented: a LinkDiagram stores no orientation, so a
    link, its reverse and a link with some components reversed share
    one code. Nothing that depends on orientation (signature, Jones,
    Khovanov gradings, crossing signs) may be cached under it; the
    determinant may.

    A dict passed as labels receives the winning starts' map: crossing
    c -> 4 * id + offset, where id is c's row in the code and offset
    the slot its row begins at.  Plug 4c + s of d is then plug
    labels[c] ^ s of from_code(code), and relabel(d, labels) builds
    that diagram without the text round trip."""
    if d.n == 0:
        return "|%d" % d.loops
    codes, rest, base = [], range(d.n), 0
    while True:
        code, label, order = _piece_code(d.adj, rest, d.n)
        codes.append(code)
        if labels is not None:
            labels.update((c, label[c] + base) for c in order)
            base += 4 * len(code)
        if len(order) == len(rest):
            break
        rest = [c for c in rest if label[c] < 0]
    names = _plug_names(max(map(len, codes)))
    body = ";".join(
        ",".join(["%s %s %s %s" % (names[a], names[b], names[c], names[e])
                  for a, b, c, e in code])
        for code in codes)
    return body + "|%d" % d.loops


# a plug pair (crossing id, slot) is held as 4 * id + slot, which keeps
# the order of the pairs; _NAMES[4 * id + slot] is its text "id.slot"
_NAMES = []


def _plug_names(k):
    """_NAMES, covering the plugs of k crossings at least.  A longer
    list replaces the old one whole, so a reader holding it is never
    handed a half-filled list."""
    global _NAMES
    if len(_NAMES) < 4 * k:
        _NAMES = ["%d.%d" % divmod(p, 4)
                  for p in range(max(4 * k, 2 * len(_NAMES)))]
    return _NAMES


def relabel(d: LinkDiagram, labels) -> LinkDiagram:
    """d with plug 4c + s renamed labels[c] ^ s; with the labels of
    canonical_code(d) this is from_code(canonical_code(d))."""
    m = [labels[p >> 2] ^ (p & 3) for p in range(4 * d.n)]
    adj = [0] * (4 * d.n)
    for p, q in enumerate(d.adj):
        adj[m[p]] = m[q]
    return LinkDiagram(d.n, adj, d.loops)


def from_code(code: str) -> LinkDiagram:
    """Rebuild a diagram from its canonical_code text.

    The decoded diagram uses the canonical labels, so its own
    canonical_code round-trips.  Raises ValueError on malformed or
    inconsistent codes (certificates are audited through this path,
    so corruption must not pass silently).
    """
    # a number is spelled as canonical_code writes it: a string of 0-9
    # (int() also takes signs, blanks, _ and other digits) with no
    # leading zero, so that one diagram has one code
    if re.search(r"(?<![0-9])0[0-9]", code):
        raise ValueError("leading zero in %r" % code)
    body, _, tail = code.rpartition("|")
    if not (tail.isascii() and tail.isdigit()):
        raise ValueError("missing loop count in %r" % code)
    loops = int(tail)
    adj = []  # pair k of row i of the piece at base is plug 4 * (base + i) + k
    base = 0
    if body:
        for comp in body.split(";"):
            rows = comp.split(",")
            for row in rows:
                pairs = row.split(" ")
                if len(pairs) != 4:
                    raise ValueError("crossing row %r is not 4-valent" % row)
                for pq in pairs:
                    e, _, t = pq.partition(".")
                    if not (pq.isascii() and e.isdigit() and t.isdigit()):
                        raise ValueError("bad plug pair %r" % pq)
                    e, t = int(e), int(t)
                    if not (e < len(rows) and t < 4):
                        raise ValueError("plug %r out of range" % pq)
                    adj.append(4 * (base + e) + t)
            base += len(rows)
    for a, b in enumerate(adj):
        if a == b or adj[b] != a:
            raise ValueError("plug gluing is not an involution")
    d = LinkDiagram(base, adj, loops)
    # Euler: each piece of a planar diagram has n_i + 2 faces, and a
    # gluing that needs a handle has fewer
    if len(faces(d)) != d.n + 2 * len(graph_components(d)):
        raise ValueError("plug gluing is not planar")
    return d


def graph_components(d: LinkDiagram):
    """Sorted crossing lists of the connected pieces of the diagram."""
    seen = set()
    comps = []
    for c0 in range(d.n):
        if c0 in seen:
            continue
        comp = []
        stack = [c0]
        seen.add(c0)
        while stack:
            c = stack.pop()
            comp.append(c)
            for s in range(4):
                e = d.adj[4 * c + s] // 4
                if e not in seen:
                    seen.add(e)
                    stack.append(e)
        comps.append(sorted(comp))
    return comps


def _piece_code(adj, crossings, n):
    """Smallest piece code over the starts at the given crossings, read
    in lockstep, and the winning start's labels and crossing order.

    A start's labels are a list over all n crossings: 4 * id + offset
    for each crossing it has seen (offset 0 or 2 is the slot its row
    begins at), -1 for the rest; its order lists the seen crossings in
    id order.  A crossing is seen, and gets its id, before its own row
    is written.  Turning slots by offset 2 flips bit 1, so a plug q of
    crossing e reads as label[e] ^ (q & 3).  A row is a tuple of its
    four reads, and a start whose first read already exceeds the best
    row's is dropped without reading the other three."""
    states = []
    for c in crossings:
        for side in (0, 2):
            label = [-1] * n
            label[c] = side
            states.append((label, [c]))
    code = []
    while True:
        i = len(code)
        best = None
        for state in states:
            label, order = state
            if i == len(order):
                return code, label, order
            c = order[i]
            p = c << 2 | label[c] & 2
            q = adj[p]
            x = label[q >> 2]
            if x < 0:
                x = label[q >> 2] = len(order) << 2 | q & 2
                order.append(q >> 2)
            x ^= q & 3
            if best is not None and x > best[0]:
                continue
            q1 = adj[p + 1]
            y = label[q1 >> 2]
            if y < 0:
                y = label[q1 >> 2] = len(order) << 2 | q1 & 2
                order.append(q1 >> 2)
            q2 = adj[p ^ 2]
            z = label[q2 >> 2]
            if z < 0:
                z = label[q2 >> 2] = len(order) << 2 | q2 & 2
                order.append(q2 >> 2)
            q3 = adj[(p ^ 2) + 1]
            w = label[q3 >> 2]
            if w < 0:
                w = label[q3 >> 2] = len(order) << 2 | q3 & 2
                order.append(q3 >> 2)
            row = (x, y ^ q1 & 3, z ^ q2 & 3, w ^ q3 & 3)
            if best is None or row < best:
                best, keep = row, [state]
            elif row == best:
                keep.append(state)
        states = keep
        code.append(best)
