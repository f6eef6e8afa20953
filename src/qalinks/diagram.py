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
* mirroring rotates every plug label by one; flipping a tangle over
  its NW-SE diagonal swaps plugs 1 and 3 and corners NE and SW
* basic polyhedra are medial graphs: 6* of K4, 8* of the 4-wheel,
  9* of the triangular prism, 10* of the 5-wheel, 10** of the prism
  with one square diagonal, 10*** of the octahedron minus two disjoint
  edges that share no face (the only other planar graph with V=F=6,
  E=10 and minimum degree and face size 3, so the three 10-vertex
  basic polyhedra are exactly the medials of these dual pairs)

Plugs are encoded as 4*crossing + slot; tangles additionally carry the
free corner plugs "NW", "SW", "SE", "NE".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from qalinks import conway
from qalinks.conway import MissingParameterError, Neg, Param, Poly, Prod, Ram, Seq


class DisconnectedDiagramError(ValueError):
    pass


class EmptyWordError(ValueError):
    pass


CORNERS = ("NW", "SW", "SE", "NE")  # counter clockwise, = vertex darts 0..3


def _pair(arcs, a, b):
    arcs[a] = b
    arcs[b] = a


def _fuse(arcs, pairs):
    """Join arcs through connector plugs and drop them.

    pairs lists plugs to be fused two at a time; each listed plug
    disappears and its arc continues into its partner's arc. Returns
    the new arc dict and the number of closed loops that formed.
    A pair (a, a) where a has no arc is a free strand closing on
    itself and counts as a loop directly.
    """
    loops = 0
    link = {}
    for a, b in pairs:
        if a == b:
            if a in arcs:
                raise ValueError("self fuse on a used plug")
            loops += 1
            continue
        link[a] = b
        link[b] = a
    out = {}
    seen = set()
    for p in arcs:
        if p in link or p in seen:
            continue
        seen.add(p)
        q = arcs[p]
        while q in link:
            seen.add(q)
            q = link[q]
            seen.add(q)
            q = arcs[q]
        seen.add(q)
        _pair(out, p, q)
    # connector chains that close on themselves are new loops
    for p in link:
        if p in seen:
            continue
        loops += 1
        q = p
        while q not in seen:
            seen.add(q)
            q = link[q]
            seen.add(q)
            q = arcs[q]
    return out, loops


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


def _relabel(t: Tangle, crossing_offset, corner_map):
    arcs = {}

    def m(p):
        if isinstance(p, int):
            return p + 4 * crossing_offset
        return corner_map.get(p, p)

    for a, b in t.arcs.items():
        arcs[m(a)] = m(b)
    return arcs


def add(a: Tangle, b: Tangle) -> Tangle:
    """Horizontal sum: b glued to the right of a."""
    left = dict(a.arcs)
    right = _relabel(b, a.n, {"NW": "bNW", "SW": "bSW", "SE": "bSE", "NE": "bNE"})
    merged = {**left, **right}
    arcs, loops = _fuse(merged, [("NE", "bNW"), ("SE", "bSW")])
    out = {}
    for p, q in arcs.items():
        out[_unb(p)] = _unb(q)
    return Tangle(a.n + b.n, out, a.loops + b.loops + loops)


def _unb(p):
    return {"bNE": "NE", "bSE": "SE"}.get(p, p)


def transpose(t: Tangle) -> Tangle:
    """Flip over the NW-SE diagonal, keeping over/under as drawn."""
    swap = {"NE": "SW", "SW": "NE"}
    arcs = {}

    def m(p):
        if isinstance(p, int):
            s = p % 4
            return p - s + (s if s % 2 == 0 else 4 - s)
        return swap.get(p, p)

    for a, b in t.arcs.items():
        arcs[m(a)] = m(b)
    return Tangle(t.n, arcs, t.loops)


def tangle_mirror(t: Tangle) -> Tangle:
    arcs = {}

    def m(p):
        if isinstance(p, int):
            return p - p % 4 + (p + 1) % 4
        return p

    for a, b in t.arcs.items():
        arcs[m(a)] = m(b)
    return Tangle(t.n, arcs, t.loops)


@dataclass
class LinkDiagram:
    n: int
    adj: dict
    loops: int = 0

    def __repr__(self):
        return "LinkDiagram(n=%d, loops=%d)" % (self.n, self.loops)


def closure_numerator(t: Tangle) -> LinkDiagram:
    arcs, loops = _fuse(t.arcs, [("NW", "NE"), ("SW", "SE")])
    return LinkDiagram(t.n, arcs, t.loops + loops)


def _expr_tangle(node) -> Tangle:
    if isinstance(node, Seq):
        t = None
        for term in node.terms:
            if isinstance(term, Param):
                raise MissingParameterError(term.name)
            nxt = int_tangle(term)
            t = nxt if t is None else add(transpose(t), nxt)
        return t
    if isinstance(node, Param):
        raise MissingParameterError(node.name)
    if isinstance(node, Prod):
        t = _expr_tangle(node.factors[0])
        for f in node.factors[1:]:
            t = add(transpose(t), _expr_tangle(f))
        return t
    if isinstance(node, Ram):
        t = None
        for part in conway.ram_summands(node):
            nxt = transpose(_expr_tangle(part))
            t = nxt if t is None else add(t, nxt)
        return t
    if isinstance(node, Neg):
        return tangle_mirror(_expr_tangle(node.inner))
    raise TypeError("cannot use %s as a tangle" % type(node).__name__)


def build(symbol) -> LinkDiagram:
    """Diagram of a Conway symbol (text or syntax tree)."""
    node = conway.parse(symbol) if isinstance(symbol, str) else symbol
    if isinstance(node, Poly):
        return _build_poly(node)
    return closure_numerator(_expr_tangle(node))


# --- basic polyhedra -------------------------------------------------

def _rotations(coords, edges):
    """Counter clockwise neighbor order at every vertex from coordinates."""
    rot = {v: [] for v in coords}
    for u, v in edges:
        rot[u].append(v)
        rot[v].append(u)
    for v, nbrs in rot.items():
        x0, y0 = coords[v]
        nbrs.sort(key=lambda w: math.atan2(coords[w][1] - y0, coords[w][0] - x0))
    return rot


def _map_faces(rot):
    """Faces of the map given by a rotation system, as dart cycles."""
    darts = [(u, v) for u in rot for v in rot[u]]
    nxt = {}
    for u, v in darts:
        nbrs = rot[v]
        w = nbrs[(nbrs.index(u) - 1) % len(nbrs)]
        nxt[(u, v)] = (v, w)
    faces = []
    seen = set()
    for d in darts:
        if d in seen:
            continue
        face = []
        while d not in seen:
            seen.add(d)
            face.append(d)
            d = nxt[d]
        faces.append(face)
    return faces


def _medial_frames(coords, edges):
    """Vertex frames of the medial map of a plane graph.

    Returns a list over medial vertices (one per edge, in the order
    given) of 4-tuples frame[k] = (other_vertex, other_dart) so that
    dart k of vertex i attaches to dart frame[i][k][1] of vertex
    frame[i][k][0]. Dart parities are chosen so that every medial edge
    joins an even dart to an odd one.
    """
    rot = _rotations(coords, edges)
    faces = _map_faces(rot)
    v, e, f = len(coords), len(edges), len(faces)
    if v - e + f != 2:
        raise ValueError("base graph rotation system is not planar")
    index = {}
    for i, (a, b) in enumerate(edges):
        index[(a, b)] = i
        index[(b, a)] = i
    def around(u, eu):
        nbrs = rot[u]
        j = nbrs.index(eu)
        return nbrs[(j + 1) % len(nbrs)], nbrs[(j - 1) % len(nbrs)]
    # medial rotation: for edge (u, v) the four neighbors counter
    # clockwise are prev_v, next_u, prev_u, next_v, where next/prev are
    # the rotation neighbors of the edge at each endpoint
    rotation = []
    for i, (u, v) in enumerate(edges):
        nu, pu = around(u, v)
        nv, pv = around(v, u)
        rotation.append([
            ("corner", v, index[(v, pv)], i),
            ("corner", u, index[(u, v)], index[(u, nu)]),
            ("corner", u, index[(u, pu)], index[(u, v)]),
            ("corner", v, index[(v, u)], index[(v, nv)]),
        ])
    # pair up corner labels: the corner (vertex, edge a, edge b) occurs
    # at medial vertices a and b exactly once each
    where = {}
    for i, nbrs in enumerate(rotation):
        for k, corner in enumerate(nbrs):
            where.setdefault(_corner_key(corner), []).append((i, k))
    for key, ends in where.items():
        if len(ends) != 2:
            raise ValueError("bad corner %r" % (key,))
    # parity 2-coloring: flipping par[i] exchanges under and over darts
    par = [None] * len(edges)
    par[0] = 0
    queue = [0]
    while queue:
        i = queue.pop()
        for k, corner in enumerate(rotation[i]):
            (j, kj), = [x for x in where[_corner_key(corner)] if x != (i, k)]
            need = (k + kj + 1 + par[i]) % 2
            if par[j] is None:
                par[j] = need
                queue.append(j)
            elif par[j] != need:
                raise ValueError("medial map is not checkerboard colorable")
    frames = []
    for i, nbrs in enumerate(rotation):
        frame = []
        for k in range(4):
            corner = nbrs[(k + par[i]) % 4]
            (j, kj), = [x for x in where[_corner_key(corner)]
                        if x != (i, (k + par[i]) % 4)]
            frame.append((j, (kj - par[j]) % 4))
        frames.append(tuple(frame))
    return frames


def _corner_key(corner):
    _, u, a, b = corner
    return (u, a, b)


def _wheel(n):
    coords = {0: (0.0, 0.0)}
    edges = []
    for i in range(1, n + 1):
        a = 2 * math.pi * i / n
        coords[i] = (math.cos(a), math.sin(a))
    for i in range(1, n + 1):
        edges.append((i, i % n + 1))
        edges.append((i, 0))
    return coords, edges


def _prism(diagonal=False):
    coords = {}
    for i in range(3):
        a = 2 * math.pi * i / 3 + math.pi / 2
        coords["t%d" % i] = (2 * math.cos(a), 2 * math.sin(a))
        coords["b%d" % i] = (math.cos(a), math.sin(a))
    edges = [("t0", "t1"), ("t1", "t2"), ("t2", "t0"),
             ("b0", "b1"), ("b1", "b2"), ("b2", "b0"),
             ("t0", "b0"), ("t1", "b1"), ("t2", "b2")]
    if diagonal:
        edges.append(("t0", "b1"))
    return coords, edges


def _octahedron_minus():
    coords = {}
    for i in range(3):
        a = 2 * math.pi * i / 3 + math.pi / 2
        coords["t%d" % i] = (2 * math.cos(a), 2 * math.sin(a))
        b = a - math.pi / 3
        # strictly inside the outer chords, which sit at distance 1
        coords["b%d" % i] = (0.9 * math.cos(b), 0.9 * math.sin(b))
    edges = [("t1", "t2"), ("t2", "t0"),
             ("b0", "b1"), ("b1", "b2"),
             ("t0", "b0"), ("t0", "b1"), ("t1", "b1"),
             ("t1", "b2"), ("t2", "b2"), ("t2", "b0")]
    return coords, edges


def _k4():
    coords = {0: (0.0, 0.0)}
    for i in range(1, 4):
        a = 2 * math.pi * i / 3
        coords[i] = (math.cos(a), math.sin(a))
    # edge order gives the vertex numbering of the medial: a zigzag
    # hamiltonian cycle (consecutive vertices adjacent)
    edges = [(1, 2), (2, 0), (2, 3), (3, 0), (3, 1), (1, 0)]
    return coords, edges


def _wheel_zigzag(n):
    coords, _ = _wheel(n)
    edges = []
    for i in range(1, n + 1):
        edges.append((i, i % n + 1))
        edges.append((i % n + 1, 0))
    return coords, edges


def _basis_frames():
    out = {}
    out["6*"] = _medial_frames(*_k4())
    out["8*"] = _medial_frames(*_wheel_zigzag(4))
    out["9*"] = _medial_frames(*_prism())
    out["10*"] = _medial_frames(*_wheel_zigzag(5))
    out["10**"] = _medial_frames(*_prism(diagonal=True))
    out["10***"] = _medial_frames(*_octahedron_minus())
    return out


BASIS_FRAMES = _basis_frames()

# Substitution convention.  A one-crossing tangle is fixed by the diagonal
# transpose, so the all-one filling of each basic polyhedron cannot see the
# orientation in which slot tangles are substituted; larger tangles can.
# At the vertices listed here the slot tangle is transposed before insertion.
# For the octahedral basis the pattern (odd-numbered vertices) was pinned
# against links whose other minimal diagrams are pretzel or product forms
# with independently checkable invariants; the remaining bases reuse the
# same alternating pattern over the construction-order numbering.
BASIS_TRANSPOSED = {
    "6*": frozenset([1, 3, 5]),
    "8*": frozenset([1, 3, 5, 7]),
    "9*": frozenset([1, 3, 5, 7]),
    "10*": frozenset([1, 3, 5, 7, 9]),
    "10**": frozenset([1, 3, 5, 7, 9]),
    "10***": frozenset([1, 3, 5, 7, 9]),
}


def _build_poly(node: Poly) -> LinkDiagram:
    frames = BASIS_FRAMES[node.basis]
    flipped = BASIS_TRANSPOSED[node.basis]
    arcs = {}
    offsets = []
    total = 0
    loops = 0
    for v, slot in enumerate(node.slots):
        t = _expr_tangle(slot)
        if v in flipped:
            t = transpose(t)
        offsets.append(total)
        corner_map = {c: ("v", v, c) for c in CORNERS}
        for a, b in _relabel(t, total, corner_map).items():
            arcs[a] = b
        total += t.n
        loops += t.loops
    pairs = []
    done = set()
    for v, frame in enumerate(frames):
        for k in range(4):
            w, j = frame[k]
            key = frozenset([(v, k), (w, j)])
            if key in done:
                continue
            done.add(key)
            # tangle corners run clockwise against the counterclockwise
            # frame directions; this is the embedding chirality that makes
            # the octahedral knot anchors come out unmirrored
            pairs.append((("v", v, CORNERS[-k % 4]),
                          ("v", w, CORNERS[-j % 4])))
    arcs, extra = _fuse(arcs, pairs)
    return LinkDiagram(total, arcs, loops + extra)


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
    arcs, loops = _fuse(arcs, pairs)
    return LinkDiagram(n, arcs, loops)


# --- diagram operations ----------------------------------------------

def _through(p):
    return p - p % 4 + (p + 2) % 4


def entry_plugs(d: LinkDiagram):
    """Plugs where the chosen traversal enters a crossing.

    Components are oriented in the order their smallest plug appears.
    """
    entries = set()
    seen = set()
    for p0 in sorted(d.adj):
        if p0 in seen:
            continue
        p = p0
        while True:
            q = d.adj[p]
            entries.add(q)
            seen.add(p)
            seen.add(q)
            p = _through(q)
            if p == p0:
                break
    return entries


def components(d: LinkDiagram) -> int:
    count = d.loops
    seen = set()
    for p0 in sorted(d.adj):
        if p0 in seen:
            continue
        count += 1
        p = p0
        while True:
            q = d.adj[p]
            seen.add(p)
            seen.add(q)
            p = _through(q)
            if p == p0:
                break
    return count


def crossing_signs(d: LinkDiagram):
    """Sign of every crossing under the traversal orientation."""
    entries = entry_plugs(d)
    signs = []
    for c in range(d.n):
        under = next(s for s in (0, 2) if 4 * c + s in entries)
        over = next(s for s in (1, 3) if 4 * c + s in entries)
        signs.append(1 if (over - under) % 4 == 3 else -1)
    return signs


def writhe(d: LinkDiagram) -> int:
    return sum(crossing_signs(d))


def mirror(d: LinkDiagram) -> LinkDiagram:
    adj = {}
    m = lambda p: p - p % 4 + (p + 1) % 4
    for a, b in d.adj.items():
        adj[m(a)] = m(b)
    return LinkDiagram(d.n, adj, d.loops)


def is_alternating(d: LinkDiagram) -> bool:
    return all((a + b) % 2 == 1 for a, b in d.adj.items())


def state_circles(d: LinkDiagram, state: int):
    """Circles of the smoothing state given as a bitmask, free loops left out.

    Bit c of state picks the B smoothing at crossing c, a clear bit the
    A smoothing.  Each circle is the tuple of plugs met walking from
    its smallest plug along the arc, then across the smoothing to the
    partner plug (slot s^1 under A, 3-s under B), and so on; circles
    come in the order of their smallest plugs.  A circle that a state
    change leaves untouched keeps the identical tuple.
    """
    adj = d.adj
    seen = bytearray(4 * d.n)
    circles = []
    for p0 in range(4 * d.n):
        if seen[p0]:
            continue
        circle = []
        p = p0
        while True:
            q = adj[p]
            seen[p] = seen[q] = 1
            circle += (p, q)
            p = q ^ 3 if state >> (q >> 2) & 1 else q ^ 1
            if p == p0:
                break
        circles.append(tuple(circle))
    return circles


def smooth(d: LinkDiagram, c: int, kind: str) -> LinkDiagram:
    """Replace crossing c by the A or B smoothing."""
    if kind == "A":
        pairs = [(4 * c, 4 * c + 1), (4 * c + 2, 4 * c + 3)]
    elif kind == "B":
        pairs = [(4 * c, 4 * c + 3), (4 * c + 1, 4 * c + 2)]
    else:
        raise ValueError(kind)
    arcs, loops = _fuse(dict(d.adj), pairs)
    return _drop_crossings(LinkDiagram(d.n, arcs, d.loops + loops), {c})


def _drop_crossings(d: LinkDiagram, dead) -> LinkDiagram:
    order = [c for c in range(d.n) if c not in dead]
    newid = {c: i for i, c in enumerate(order)}
    adj = {}
    for a, b in d.adj.items():
        adj[4 * newid[a // 4] + a % 4] = 4 * newid[b // 4] + b % 4
    return LinkDiagram(len(order), adj, d.loops)


def _find_kink(d: LinkDiagram):
    for a, b in d.adj.items():
        if a // 4 == b // 4 and a < b and (b - a) % 4 in (1, 3):
            return a, b
    return None


def _find_bigon(d: LinkDiagram):
    for a, b in d.adj.items():
        if a >= b or a // 4 == b // 4:
            continue
        c, e = a // 4, b // 4
        # look for a second arc between c and e, adjacent on both
        for s in ((a % 4 + 1) % 4, (a % 4 - 1) % 4):
            a2 = 4 * c + s
            b2 = d.adj[a2]
            if b2 // 4 != e:
                continue
            if (b2 % 4 - b % 4) % 4 not in (1, 3):
                continue
            # reducible only when both strands stay on one level,
            # which makes each bigon arc join slots of equal parity
            if (a + b) % 2 == 0 and (a2 + b2) % 2 == 0:
                return (a, b), (a2, b2)
    return None


def reduce_once(d: LinkDiagram):
    """One Reidemeister 1 or 2 reduction, or None."""
    kink = _find_kink(d)
    if kink:
        a, b = kink
        c = a // 4
        arcs = dict(d.adj)
        del arcs[a], arcs[b]
        other = [4 * c + s for s in range(4) if 4 * c + s not in (a, b)]
        arcs, loops = _fuse(arcs, [tuple(other)])
        return _drop_crossings(LinkDiagram(d.n, arcs, d.loops + loops), {c})
    bigon = _find_bigon(d)
    if bigon:
        (a, b), (a2, b2) = bigon
        arcs = dict(d.adj)
        for p in (a, b, a2, b2):
            del arcs[p]
        pairs = [(_through(a), _through(b)), (_through(a2), _through(b2))]
        arcs, loops = _fuse(arcs, pairs)
        return _drop_crossings(LinkDiagram(d.n, arcs, d.loops + loops),
                               {a // 4, b // 4})
    return None


def simplify(d: LinkDiagram) -> LinkDiagram:
    """Apply Reidemeister 1 and 2 reductions until none is possible."""
    while True:
        nxt = reduce_once(d)
        if nxt is None:
            return d
        d = nxt


def r3_moves(d: LinkDiagram):
    """All diagrams one Reidemeister 3 slide away.

    A triangular face admits a slide along a bounding arc that runs at
    the same level (over both ends or under both ends) through its two
    crossings; the arc sweeps past the third crossing.  Crossings keep
    their internal structure, only the nine arcs around the triangle
    are rewired: each of the three strands passes the two crossings it
    meets in the opposite order afterwards.  Triangles that touch a
    crossing twice, or whose surrounding arcs loop straight back into
    the triangle, are skipped.
    """
    out = []
    opp = lambda x: x - x % 4 + (x + 2) % 4
    for face in faces(d):
        if len(face) != 3:
            continue
        if len({q // 4 for _, q in face}) != 3:
            continue
        for i in range(3):
            p, q = face[i]
            if p % 2 != q % 2:
                continue
            prev = face[(i + 2) % 3]
            nxt = face[(i + 1) % 3]
            # slid strand S runs p->q between crossings A and B; the
            # other two strands U (through A) and V (through B) cross
            # each other at C; *_tri plugs face the triangle
            sa_tri, sb_tri = p, q
            ua_tri, uc_tri = prev[1], prev[0]
            vb_tri, vc_tri = nxt[0], nxt[1]
            sa_ext, sb_ext = opp(sa_tri), opp(sb_tri)
            ua_ext, uc_ext = opp(ua_tri), opp(uc_tri)
            vb_ext, vc_ext = opp(vb_tri), opp(vc_tri)
            tri = {sa_tri, sb_tri, ua_tri, uc_tri, vb_tri, vc_tri,
                   sa_ext, sb_ext, ua_ext, uc_ext, vb_ext, vc_ext}
            xsa, xsb = d.adj[sa_ext], d.adj[sb_ext]
            xua, xuc = d.adj[ua_ext], d.adj[uc_ext]
            xvb, xvc = d.adj[vb_ext], d.adj[vc_ext]
            if {xsa, xsb, xua, xuc, xvb, xvc} & tri:
                continue
            adj = dict(d.adj)
            for x in tri | {xsa, xsb, xua, xuc, xvb, xvc}:
                adj.pop(x, None)
            for a, b in ((xsa, sb_tri), (sb_ext, sa_ext), (sa_tri, xsb),
                         (xua, uc_tri), (uc_ext, ua_ext), (ua_tri, xuc),
                         (xvb, vc_tri), (vc_ext, vb_ext), (vb_tri, xvc)):
                _pair(adj, a, b)
            out.append(LinkDiagram(d.n, adj, d.loops))
    return out


# --- crossing extension ----------------------------------------------

class ExtensionSignMismatch(ValueError):
    """Tangle entries must all carry the sign of the replaced crossing."""


@dataclass(frozen=True)
class ExtensionSpec:
    crossing: int
    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries or any(a == 0 for a in self.entries):
            raise ValueError("entries must be nonzero integers")


# Corner frames: where the tangle corners land on the plugs of the
# replaced crossing, per crossing sign.  With these frames the single
# tangle with the crossing's own sign glues back to the identical
# diagram, which pins the convention.
_FRAME = {
    1: {"SE": 0, "NE": 1, "NW": 2, "SW": 3},
    -1: {"SE": 1, "NE": 2, "NW": 3, "SW": 0},
}


def extend(d: LinkDiagram, spec: ExtensionSpec) -> LinkDiagram:
    """Replace a crossing with the twist tangle of spec.entries.

    The entries must all carry the sign of the replaced crossing,
    making the inserted rational tangle alternate with its
    surroundings; crossing count grows by sum(|entries|) - 1.
    """
    c = spec.crossing
    if not 0 <= c < d.n:
        raise ValueError("no crossing %r" % (c,))
    sign = crossing_signs(d)[c]
    if any(sign * a < 1 for a in spec.entries):
        raise ExtensionSignMismatch(
            "entries %r do not extend a crossing of sign %+d"
            % (list(spec.entries), sign))
    t = _expr_tangle(Seq(spec.entries))
    shift = 4 * d.n
    arcs = dict(d.adj)
    for a, b in t.arcs.items():
        ra = a if isinstance(a, str) else a + shift
        rb = b if isinstance(b, str) else b + shift
        arcs[ra] = rb
    frame = _FRAME[sign]
    arcs, loops = _fuse(arcs, [(corner, 4 * c + s)
                               for corner, s in frame.items()])
    merged = LinkDiagram(d.n + t.n, arcs, d.loops + t.loops + loops)
    return _drop_crossings(merged, {c})


# --- faces and coloring ----------------------------------------------

def faces(d: LinkDiagram):
    """Faces of the diagram as cycles of darts (ordered arc traversals).

    A dart (p, q) runs along the arc from plug p to plug q; the next
    dart of the face turns left, leaving from the plug one step counter
    clockwise of q.
    """
    darts = []
    for a, b in d.adj.items():
        darts.append((a, b))
    out = []
    seen = set()
    for start in sorted(darts):
        if start in seen:
            continue
        face = []
        dart = start
        while dart not in seen:
            seen.add(dart)
            face.append(dart)
            p, q = dart
            r = q - q % 4 + (q + 1) % 4
            dart = (r, d.adj[r])
        out.append(tuple(face))
    return out


def checkerboard(d: LinkDiagram):
    """Faces plus a proper 2-coloring (0/1) of the face adjacency."""
    if d.n == 0:
        raise DisconnectedDiagramError("no crossings to color around")
    fs = faces(d)
    # a connected diagram with n crossings has n+2 faces by Euler
    if d.loops or len(fs) != d.n + 2:
        raise DisconnectedDiagramError("diagram is split")
    at = {}
    for i, face in enumerate(fs):
        for p, q in face:
            at[(p, q)] = i
    colors = [None] * len(fs)
    colors[0] = 0
    stack = [0]
    while stack:
        i = stack.pop()
        for p, q in fs[i]:
            j = at[(q, p)]
            if colors[j] is None:
                colors[j] = 1 - colors[i]
                stack.append(j)
            elif colors[j] == colors[i]:
                raise ValueError("faces are not checkerboard colorable")
    return fs, colors


def canonical_code(d: LinkDiagram) -> str:
    """Canonical text form, stable under crossing renumbering and the
    180 degree turn of single crossings. Mirror images get different
    codes. The code lists, for each crossing in canonical order, the
    plugs its four slots attach to, plus the free loop count."""
    if d.n == 0:
        return "|%d" % d.loops
    comp = graph_components(d)
    codes = []
    for crossings in comp:
        best = None
        for c in crossings:
            for s in range(4):
                cand = _code_from(d, 4 * c + s)
                if best is None or cand < best:
                    best = cand
        codes.append(best)
    codes.sort()
    body = ";".join(
        ",".join(" ".join("%d.%d" % pq for pq in row) for row in code)
        for code in codes)
    return body + "|%d" % d.loops


def from_code(code: str) -> LinkDiagram:
    """Rebuild a diagram from its canonical_code text.

    The decoded diagram uses the canonical labels, so its own
    canonical_code round-trips.  Raises ValueError on malformed or
    inconsistent codes (certificates are audited through this path,
    so corruption must not pass silently).
    """
    body, _, tail = code.rpartition("|")
    try:
        loops = int(tail)
    except ValueError:
        raise ValueError("missing loop count in %r" % code)
    if loops < 0:
        raise ValueError("negative loop count in %r" % code)
    arcs = {}
    base = 0
    if body:
        for comp in body.split(";"):
            rows = comp.split(",")
            for i, row in enumerate(rows):
                pairs = row.split(" ")
                if len(pairs) != 4:
                    raise ValueError("crossing row %r is not 4-valent" % row)
                for k, pq in enumerate(pairs):
                    e, _, t = pq.partition(".")
                    try:
                        e, t = int(e), int(t)
                    except ValueError:
                        raise ValueError("bad plug pair %r" % pq)
                    if not (0 <= e < len(rows) and 0 <= t < 4):
                        raise ValueError("plug %r out of range" % pq)
                    arcs[4 * (base + i) + k] = 4 * (base + e) + t
            base += len(rows)
    for a, b in arcs.items():
        if a == b or arcs.get(b) != a:
            raise ValueError("plug gluing is not an involution")
    return LinkDiagram(base, arcs, loops)


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


def _code_from(d: LinkDiagram, start):
    newid = {}
    offset = {}
    order = []

    def visit(plug):
        c = plug // 4
        if c not in newid:
            newid[c] = len(order)
            offset[c] = 0 if plug % 4 in (0, 1) else 2
            order.append(c)

    visit(start)
    i = 0
    while i < len(order):
        c = order[i]
        for k in range(4):
            visit(d.adj[4 * c + (offset[c] + k) % 4])
        i += 1
    code = []
    for c in order:
        row = []
        for k in range(4):
            q = d.adj[4 * c + (offset[c] + k) % 4]
            e = q // 4
            row.append((newid[e], (q % 4 - offset[e]) % 4))
        code.append(tuple(row))
    return tuple(code)

