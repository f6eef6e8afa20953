"""Khovanov homology over F2: D. Bar-Natan's local scan from SCAN_FROM
crossings up, the marked-circle subcomplex of the cube below that.

The zero smoothing of every crossing is the A smoothing (plugs (0,1)
and (2,3) joined), the one smoothing is B, matching the bracket
conventions in the invariants module.  A state with r one-smoothings
sits in homological degree i = r - n_minus; a labeling of its circles
with deg = (#unit - #x) sits in quantum degree j = deg + r + n_plus
- 2*n_minus.

Both paths compute reduced homology, x killed on a marked circle, and
count its ranks at (r, q), q = r + deg over the circles but the marked
one, free loops left out.  One tail turns them into the table: over F2
unreduced Khovanov homology is the reduced one tensored with
V = F2[x]/x^2 for the marked circle (A. Shumakovitch, Torsion of the
Khovanov homology, arXiv:math/0405474, Cor. 3.2.C), and a free loop
tensors it with V once more, so each of these factors moves a rank to
q - 1 and q + 1.  The tail then shifts the ranks once, by crossing
signs from the same traversal orientation the writhe uses, so the
graded Euler characteristic lands exactly on (q + 1/q) times the Jones
polynomial as stored next door.  A diagram without crossings marks one
of its free loops.  The empty diagram has no circle to mark; its table
{(0, 0): 1} is returned as is.

The cube.  Only the generators whose marked circle is labelled x are
built.  The marked circle is circle 0 of every state, the circle
through plug 0 (state_circles orders circles by their smallest plug).
These generators span a subcomplex, because no edge takes the x off
the marked circle: a merge sends x⊗1 to x and x⊗x to 0, a split sends
x to x⊗x, and the circle the edge makes from the marked one is again
the marked circle.  The quotient, with the marked circle at 1, is the
same complex two quantum degrees up, which is the tail's factor V for
the marked circle.  The cube serves fewer than SCAN_FROM crossings, so
it is built whole, and each (r, q) block of it is ranked on its own.

Each state's circles are kept as a byte string of plug -> circle
labels.  The A smoothing joins plugs (0,1) and (2,3), so flipping
crossing c from A to B touches the circles a and b at plugs 4c and
4c + 2, and since state_circles numbers circles by their smallest
plugs, the indices alone say what the flip does.  A merge (a < b)
gives the merged circle index a and moves every circle above b down
one.  A split (a = b) leaves index a to the part through a's smallest
plug and inserts the other part at index w, one past the circles whose
smallest plugs come before its own, moving every circle from w up one.
Only state 0 is walked whole, by diagram.circle_labels.  Every other
state is labelled from a parent, the state with one of its B
smoothings back at A, by this rule: a merge is one byte translate, a
split one walk of the new circle through plug 4c by
diagram.state_circle, the diagram module's one state-circle walk, so a
parent that merges is preferred.  The same rule maps each edge: a
labeling's image is a few shifts and masks of its bits, fixed by the
source state's circle count and the touched indices alone, so the
images of each such key are tabulated once per call and read by every
edge with that key.

The scan (D. Bar-Natan, Fast Khovanov homology computations,
arXiv:math/0606318), over F2.  The crossings are added in
diagram.scan_order to a complex of crossingless matchings of the open
ends, each at a homological degree h and a q shift.  One arc is cut:
both its ends stay open from the first of its crossings placed to the
last crossing and are marked, and a dot on any component touching them
is 0, which gives reduced homology.  Over F2 the reduced homology does
not depend on the arc marked (Shumakovitch, as above), so the scan
cuts the arc whose earlier end scan_order places last, ties to the
smallest plug: the fewest steps carry its open ends.  A morphism
M -> N is an F2 sum of dot patterns on the cycles of M ∪ N, one disk
per cycle with at most one dot, held as an int with bit P set for
pattern P.  Any glued surface reduces to such sums by its components,
over F2 with dot^2 = 0: a handle is 0; a sphere is 1 with exactly one
dot, else 0; an undotted genus-0 piece with b boundary cycles becomes
its b terms with all cycles but one dotted; a once-dotted piece
becomes the term with all its cycles dotted.

Adding crossing c puts each object in c's A smoothing at (h, q) and in
its B smoothing at (h + 1, q + 1), joined by the saddle, and each
entry in either smoothing beside the identity of its arcs;
diagram.fuse glues the arcs and reports a plug on every loop that
closes.  Each closed loop is delooped into a copy at q + 1, reached by
an undotted cup and left by a dotted cap, and a copy at q - 1, reached
by a dotted cup and left by an undotted cap.  Then every identity
entry a -> b (the same matching and q) is eliminated: over F2 each
entry s -> t gains the composite of s -> b and a -> t, and a and b go.
Once every crossing is placed only the cut arc is left, and an entry
between two of its copies could only be an identity, so none is left:
each object at (h, q) is one reduced generator.

The scan's work grows with the matchings of the open ends rather than
with 2^n, but each object costs far more than a cube labeling, so
below SCAN_FROM crossings the cube is faster, as measured against it:
cube time over scan time, summed per crossing number over the
benchmark's simplified homology-table and table-rows diagrams, is 0.8
at 6 crossings, 1.3 at 7, 2.3 at 8 and 14 at 12, though some seven-
crossing diagrams are still faster on the cube.  khovanov_f2 reads
SCAN_FROM and the caps from d.n at call time.

The size caps are the module constants CROSSING_CAP and DIM_CAP; a
diagram over either raises SizeLimitError before the complex is
built, and before crossing_signs is called.  DIM_CAP bounds the
unreduced dimension, the sum of 2^k over the states with k circles,
free loops counted, on both paths by one formula: the reduced
generators, 2^(k - 1) per state, times 2 for the marked circle and for
each free loop.  The cube counts them over its labelled states, the
scan from a count per matching of the states reaching it, each weighed
by 2^(loops closed), as the bracket's scan counts them.  The caps
refuse a diagram by the size of its homology's full cube, whichever
complex computes it.
"""

from __future__ import annotations

from dataclasses import dataclass

from qalinks.diagram import (
    LinkDiagram, circle_labels, crossing_signs, fuse, scan_order,
    state_circle,
)
from qalinks.invariants import SizeLimitError

CROSSING_CAP = 12
DIM_CAP = 1 << 22
SCAN_FROM = 7


def khovanov_f2(d: LinkDiagram) -> dict:
    """Ranks of F2 Khovanov homology as a map (i, j) -> dimension."""
    if not d.n and not d.loops:  # the empty link: no circle to mark
        return {(0, 0): 1}
    if d.n > CROSSING_CAP:
        raise SizeLimitError("%d crossings exceed the cap %d"
                             % (d.n, CROSSING_CAP))
    return (_scan if d.n >= SCAN_FROM else _cube)(d)


def _check_dimension(d: LinkDiagram, reduced: int):
    """Refuse a diagram whose unreduced dimension, its reduced
    generators times 2 for the marked circle and for each free loop,
    exceeds DIM_CAP."""
    total = reduced << d.loops + (d.n > 0)
    if total > DIM_CAP:
        raise SizeLimitError("chain dimension %d exceeds the cap %d"
                             % (total, DIM_CAP))


# One copy of each (i, j) key and each thinness report ever returned,
# so that rank tables and reports kept side by side, as the rows of a
# table keep them, share them; it holds equal immutable values only,
# so no result depends on it.
_KEYS = {}


def _graded(d: LinkDiagram, counts: dict) -> dict:
    """Reduced ranks counted at (r, q), tensored with V for the marked
    circle and each free loop, each factor moving a rank to q - 1 and
    q + 1, then shifted to (r - n_minus, q + n_plus - 2 n_minus), zeros
    dropped, keys sorted."""
    for _ in range(d.loops + (d.n > 0)):
        full = {}
        for (r, q), h in counts.items():
            for key in (r, q - 1), (r, q + 1):
                full[key] = full.get(key, 0) + h
        counts = full
    n_minus = crossing_signs(d).count(-1)
    shift = d.n - 3 * n_minus
    ranks = {}
    for (r, q), h in sorted(counts.items()):
        if h:
            key = (r - n_minus, q + shift)
            ranks[_KEYS.setdefault(key, key)] = h
    return ranks


def _labels(d: LinkDiagram):
    """Per state mask: the plug -> circle label bytes, and the circle
    count, free loops left out; a diagram without crossings has one
    state of one circle, a free loop.  State 0 is labelled by
    diagram.circle_labels, every other state derived from a parent by
    the index rule; for a split, diagram.state_circle walks the new
    circle, the part without a's smallest plug, which moves to w."""
    n, first = d.n, circle_labels(d, 0)
    lab, ks = [bytes(first)], [max(first, default=0) + 1]
    ident, tables = bytes(range(256)), {}
    for mask in range(1, 1 << n):
        low, rest = mask & -mask, mask
        while rest:  # the lowest bit whose parent merges, else the lowest
            bit = rest & -rest
            pl = lab[mask ^ bit]
            c = bit.bit_length() - 1
            if pl[4 * c] != pl[4 * c + 2]:
                low = bit
                break
            rest ^= bit
        c = low.bit_length() - 1
        ls = lab[mask ^ low]
        a, b = ls[4 * c], ls[4 * c + 2]
        k = ks[mask ^ low]
        if a != b:  # merge
            if a > b:
                a, b = b, a
            t = tables.get((a, b))
            if t is None:
                t = tables[a, b] = ident[:b] + bytes((a,)) + ident[b:255]
            lab.append(ls.translate(t))
            ks.append(k - 1)
            continue
        s = ls.index(a)
        for p0 in 4 * c, 4 * c + 1:  # split: the new circle through p0
            part = state_circle(d, mask, p0)
            if s not in part:
                break
        w = max(ls[:min(part)]) + 1
        t = tables.get(w)
        if t is None:
            t = tables[w] = ident[:w] + ident[w + 1:] + ident[255:]
        here = bytearray(ls.translate(t))
        for p in part:
            here[p] = w
        lab.append(bytes(here))
        ks.append(k + 1)
    return lab, ks


def _merge_images(k, a, b):
    """The merge of circles a < b of a state with k circles, as one
    target per odd labeling x < 2^k in order: the slot y >> 1 of the
    image y in the target state's columns, or -1 where x_a = x_b = 1
    and the image is 0."""
    lo, ab, m = (1 << b) - 1, 1 << a | 1 << b, 1 << a
    return [-1 if x & ab == ab else (x & lo | x >> b + 1 << b
                                     | x >> b - a & m) >> 1
            for x in range(1, 1 << k, 2)]


def _split_images(k, a, w):
    """The split of circle a of a state with k circles, the new circle
    at w > a, as one pair (u, v) of target slots per odd labeling
    x < 2^k in order: the image is the sum of the two, and v = -1 where
    x_a = 1 and the image is the one term u."""
    lo, m, mw = (1 << w) - 1, 1 << a, 1 << w
    return [((y | mw) >> 1, -1 if x & m else (y | m) >> 1)
            for x in range(1, 1 << k, 2)
            for y in (x & lo | x >> w << w + 1,)]


def _blocks(d: LinkDiagram):
    """The marked subcomplex of the cube as (dims, rows), keyed by
    (r, q) before the global shift: dims[r, q] is the column count of
    the block, and rows[r, q] its differential rows, bitmasks over the
    columns of block (r + 1, q).  A state with r B smoothings and k
    circles has one column per labeling y < 2^(k - 1) of the circles
    but the marked one, bit i - 1 set when circle i carries x, at
    q = r + k - 1 - 2 * popcount(y).

    The labels of every state come from _labels, each from a parent
    state by one merge or split.  The edge at crossing c maps the
    labeling x = 2y + 1 by its circle indices.  A merge of a < b sends
    x to (x & (2^b - 1)) | (x >> (b+1) << b) with bit a set to
    x_a | x_b, or to 0 when both are set.  A split of a, the new circle
    at w, sends x to z = (x & (2^w - 1)) | (x >> w << (w+1)) plus 2^w
    when x_a is set, and to (z | 2^a) + (z | 2^w) when it is not.
    These images depend on the state only through its circle count k
    and the touched indices, so each key (k, a, b) or (k, a, w) is
    tabulated once per call by _merge_images or _split_images, and an
    edge reads its table and the target state's column numbers."""
    lab, ks = _labels(d)
    _check_dimension(d, sum(1 << k - 1 for k in ks))
    dims, col = {}, []
    for mask, k in enumerate(ks):
        r = mask.bit_count()
        here = []
        for y in range(1 << k - 1):
            key = r, r + k - 1 - 2 * y.bit_count()
            idx = dims.get(key, 0)
            dims[key] = idx + 1
            here.append(idx)
        col.append(here)
    rows = {key: [0] * dim for key, dim in dims.items()}
    merges, splits = {}, {}
    for mask, k in enumerate(ks):
        ls = lab[mask]
        img = [0] * (1 << k - 1)
        for c in range(d.n):
            if mask >> c & 1:
                continue
            ct = col[mask | 1 << c]
            a, b = ls[4 * c], ls[4 * c + 2]
            if a != b:  # merge
                key = (k, a, b) if a < b else (k, b, a)
                t = merges.get(key)
                if t is None:
                    t = merges[key] = _merge_images(*key)
                img = [i if u < 0 else i ^ 1 << ct[u]
                       for i, u in zip(img, t)]
            else:  # split
                lt = lab[mask | 1 << c]
                # the part without a's smallest plug comes after a
                key = (k, a, max(lt[4 * c], lt[4 * c + 1]))
                t = splits.get(key)
                if t is None:
                    t = splits[key] = _split_images(*key)
                img = [i ^ 1 << ct[u] ^ (0 if v < 0 else 1 << ct[v])
                       for i, (u, v) in zip(img, t)]
        r = mask.bit_count()
        for y, idx in enumerate(col[mask]):
            rows[r, r + k - 1 - 2 * y.bit_count()][idx] = img[y]
    return dims, rows


def _rank(rows) -> int:
    pivots = {}
    rank = 0
    for row in rows:
        while row:
            b = row.bit_length() - 1
            if b in pivots:
                row ^= pivots[b]
            else:
                pivots[b] = row
                rank += 1
                break
    return rank


def _cube(d: LinkDiagram) -> dict:
    """khovanov_f2 on the marked-circle subcomplex of the cube."""
    dims, rows = _blocks(d)
    rank = {key: _rank(block) for key, block in rows.items()}
    return _graded(d, {(r, q): dim - rank[r, q] - rank.get((r - 1, q), 0)
                       for (r, q), dim in dims.items()})


def _cycles(m, n, ends, marks):
    """The cycles of the matchings m ∪ n of ends: (plug -> cycle,
    cycle count, mask of the cycles through marks, each cycle's
    smallest plug), cycles numbered from their smallest plugs."""
    lab, starts = {}, []
    for p in ends:
        if p in lab:
            continue
        k = len(starts)
        starts.append(p)
        q = p
        while True:
            lab[q] = k
            q = m[q]
            lab[q] = k
            q = n[q]
            if q == p:
                break
    mask = 0
    for p in marks:
        mask |= 1 << lab[p]
    return lab, len(starts), mask, starts


def _surface(nodes, glued, cycle_nodes, marked):
    """A surface made of disks 0..nodes-1 glued as glued lists them,
    (u, v, 1) along an interval and (u, v, 0) along a circle, whose
    boundary cycle i meets disk cycle_nodes[i]; no dot may sit on the
    marked cycles.  Returns its components as (disk mask, terms with
    no dot, terms with one dot), each term a mask of dotted cycles, or
    None when a handle makes it 0."""
    parent, chi = list(range(nodes)), [1] * nodes
    for u, v, w in glued:
        while parent[u] != u:
            u = parent[u]
        while parent[v] != v:
            v = parent[v]
        if u != v:
            parent[u] = v
            chi[v] += chi[u]
        chi[v] -= w
    disks = {}
    for x in range(nodes):
        r = x
        while parent[r] != r:
            r = parent[r]
        disks[r] = disks.get(r, 0) | 1 << x
    cycles = dict.fromkeys(disks, 0)
    for i, x in enumerate(cycle_nodes):
        while parent[x] != x:
            x = parent[x]
        cycles[x] |= 1 << i
    out = []
    for r, cyc in cycles.items():
        if chi[r] + cyc.bit_count() != 2:  # a handle
            return None
        mark = cyc & marked
        if not cyc:  # a sphere: 1 with one dot
            none = ()
        elif not mark:
            none = [cyc & ~(1 << i) for i in range(cyc.bit_length())
                    if cyc >> i & 1] if cyc & cyc - 1 else (0,)
        else:  # one marked cycle is left undotted, two cannot be
            none = () if mark & mark - 1 else (cyc & ~mark,)
        out.append((disks[r], none, () if mark else (cyc,)))
    return out


def _reduce(comps, dots):
    """The morphism of a _surface with a dot on each disk in dots: the
    F2 sum of its terms, an int with bit P set for dot pattern P."""
    terms = [0]
    for disks, none, one in comps:
        k = (dots & disks).bit_count()
        opts = none if k == 0 else one if k == 1 else None
        if not opts:
            return 0
        if opts[0]:
            terms = [t | o for t in terms for o in opts]
    out = 0
    for t in terms:
        out |= 1 << t
    return out


def _patterns(f):
    """The dot patterns of a morphism."""
    while f:
        low = f & -f
        yield low.bit_length() - 1
        f ^= low


def _cycle_table(mats, ends, marks):
    """_cycles of the pairs of matchings of one step, each found once."""
    memo = {}

    def cycles(a, b):
        got = memo.get((a, b))
        if got is None:
            got = memo[a, b] = _cycles(mats[a], mats[b], ends, marks)
        return got
    return cycles


def _complexes(d: LinkDiagram):
    """Yield the scan's complex after each crossing of scan_order, the
    arc whose earlier end it places last cut, ties to the smallest plug:
    (objects, out, compose).  objects maps an id to ((matching, q), h);
    out[a][b] is the entry a -> b; compose(s, b, t, f, g) is the
    morphism f: s -> b followed by g: a -> t, for an object a with b's
    matching."""
    adj, order = d.adj, scan_order(d)
    at = {c: i for i, c in enumerate(order)}
    cut = max(((p, adj[p]) for p in range(4 * d.n) if p < adj[p]),
              key=lambda a: (min(at[a[0] >> 2], at[a[1] >> 2]), -a[0]),
              default=())
    # first every step's matchings: per matching, the matching and the
    # loops that each smoothing glues it into, and the states reaching
    # it, each weighed 2^loops, for the cap
    placed, ends, mats, weights, steps = set(), [], [{}], [1], []
    for c in order:
        placed.add(c)
        plugs = range(4 * c, 4 * c + 4)
        # arcs to placed crossings, c's own kinks once, never the cut arc
        pairs = [(q, adj[q]) for q in plugs if adj[q] >> 2 in placed
                 and (adj[q] >> 2 != c or q < adj[q]) and q not in cut]
        ends = sorted({*ends, *plugs} - {p for pair in pairs for p in pair})
        p0, p1, p2, p3 = plugs
        smoothings = ({p0: p1, p1: p0, p2: p3, p3: p2},   # A
                      {p0: p3, p3: p0, p1: p2, p2: p1})   # B
        ids, new_mats, new_weights, moves = {}, [], [], []
        for m, w in zip(mats, weights):
            row = []
            for s in smoothings:
                arcs, loops = fuse({**m, **s}, pairs)
                j = ids.setdefault(tuple(arcs[p] for p in ends),
                                   len(new_mats))
                if j == len(new_mats):
                    new_mats.append(arcs)
                    new_weights.append(0)
                new_weights[j] += w << len(loops)
                row.append((j, loops))
            moves.append(row)
        mats, weights = new_mats, new_weights
        steps.append((c, pairs, moves, mats,
                      _cycle_table(mats, ends, [p for p in cut if p in ends])))
    _check_dimension(d, sum(weights))

    objects, out = {0: ((0, 0), 0)}, {0: {}}
    cycles = _cycle_table([{}], [], [])
    for c, pairs, moves, mats, new_cycles in steps:
        old_cycles, cycles = cycles, new_cycles
        # the crossing's disks: a strip per arc of either smoothing, or
        # the saddle between them
        strips = ({4 * c: 0, 4 * c + 1: 0, 4 * c + 2: 1, 4 * c + 3: 1},
                  {4 * c: 0, 4 * c + 3: 0, 4 * c + 1: 1, 4 * c + 2: 1})
        saddle = dict.fromkeys(range(4 * c, 4 * c + 4), 0)

        def glue(a, b, sa, sb, fs):
            """The entries that f: a -> b of the old complex, with a in
            smoothing sa and b in sb, gives between their delooped
            copies, for f the sum of the patterns fs: (label of a's
            loops, label of b's loops, morphism), a label's bit set
            where its loop sits at q - 1."""
            lab, k, _, _ = old_cycles(a, b)
            ja, la = moves[a][sa]
            jb, lb = moves[b][sb]
            _, _, marked, starts = cycles(ja, jb)
            # disks: the crossing's, the old cycles', a cap on each loop
            part, size = (strips[sa], 2) if sa == sb else (saddle, 1)
            caps = size + k
            glued = [(part[q], part[r] if r >> 2 == c else size + lab[r], 1)
                     for q, r in pairs]
            glued += [(caps + i, part[p] if p >> 2 == c else size + lab[p], 0)
                      for i, p in enumerate(la + lb)]
            comps = _surface(
                caps + len(la) + len(lb), glued,
                [part[p] if p >> 2 == c else size + lab[p] for p in starts],
                marked)
            got = []
            if comps is None:
                return got
            # a cup on a's loop is dotted at q - 1, a cap on b's at q + 1
            na, top = len(la), (1 << len(lb)) - 1
            for u in range(1 << na):
                for v in range(top + 1):
                    dots = (u | (top ^ v) << na) << caps
                    m = 0
                    for pat in fs:
                        m ^= _reduce(comps, pat << size | dots)
                    if m:
                        got.append((u, v, m))
            return got

        def add(x, y, m):
            """Add m to the entry x -> y; a new entry between copies of
            one matching at one q is an identity, queued to go."""
            row = out[x]
            old = row.get(y)
            if old is None:
                row[y] = m
                into[y].add(x)
                if objects[x][0] == objects[y][0]:
                    work.append((x, y))
            elif old != m:
                row[y] = old ^ m
            else:
                del row[y]
                into[y].discard(x)

        new_objects, base = {}, {}
        for o, ((a, q), h) in objects.items():
            here = base[o] = []
            for s, (j, loops) in enumerate(moves[a]):
                k = len(loops)
                here.append(len(new_objects))
                for u in range(1 << k):
                    new_objects[len(new_objects)] = (
                        (j, q + s + k - 2 * u.bit_count()), h + s)
        old_objects, old_out, objects = objects, out, new_objects
        out = {x: {} for x in objects}
        into, work, saddles, tensors = {x: set() for x in objects}, [], {}, {}
        for o, ((a, _), _) in old_objects.items():
            x0, x1 = base[o]
            got = saddles.get(a)
            if got is None:
                got = saddles[a] = glue(a, a, 0, 1, (0,))
            for u, v, m in got:
                add(x0 + u, x1 + v, m)
            for t, f in old_out[o].items():
                b = old_objects[t][0][0]
                got = tensors.get((a, b, f))
                if got is None:
                    fs = tuple(_patterns(f))
                    got = tensors[a, b, f] = (glue(a, b, 0, 0, fs),
                                              glue(a, b, 1, 1, fs))
                for x, y, got in zip(base[o], base[t], got):
                    for u, v, m in got:
                        add(x + u, y + v, m)
        composed = {}

        def compose(s, b, t, f, g):
            ms, mb, mt = objects[s][0][0], objects[b][0][0], objects[t][0][0]
            key = (ms, mb, mt, f, g)
            got = composed.get(key)
            if got is not None:
                return got
            shape = composed.get(key[:3])
            if shape is None:
                lx, kx, _, _ = cycles(ms, mb)
                ly, ky, _, _ = cycles(mb, mt)
                middle = mats[mb]
                glued = [(lx[p], kx + ly[p], 1) for p in middle
                         if p < middle[p]]
                _, _, marked, starts = cycles(ms, mt)
                shape = composed[key[:3]] = (_surface(
                    kx + ky, glued, [lx[p] for p in starts], marked), kx)
            comps, kx = shape
            got = 0
            if comps is not None:
                for x in _patterns(f):
                    for y in _patterns(g):
                        got ^= _reduce(comps, x | y << kx)
            composed[key] = got
            return got

        # Gaussian elimination of every identity entry a -> b
        for a, b in work:
            if b not in out.get(a, ()):
                continue
            sources = [(s, out[s][b]) for s in into[b] if s != a]
            targets = [(t, g) for t, g in out[a].items() if t != b]
            for s, f in sources:
                for t, g in targets:
                    m = compose(s, b, t, f, g)
                    if m:
                        add(s, t, m)
            for x in a, b:
                for t in out.pop(x):
                    into[t].discard(x)
                for s in into.pop(x):
                    del out[s][x]
                del objects[x]
        yield objects, out, compose


def _scan(d: LinkDiagram) -> dict:
    """khovanov_f2 by the local scan."""
    objects = {0: ((0, 0), 0)}
    for objects, _, _ in _complexes(d):
        pass
    counts = {}
    for (_, q), h in objects.values():
        counts[h, q] = counts.get((h, q), 0) + 1
    return _graded(d, counts)


@dataclass(frozen=True, slots=True)
class ThinnessReport:
    diagonals: tuple
    width: int
    sigma_thin: bool

    @property
    def thin(self):
        return self.width == 2


def thinness(ranks: dict, sigma: int) -> ThinnessReport:
    """Diagonal support report: width and the sigma-thinness test.

    Diagonals are delta = j - 2i; width counts occupied diagonals on
    the step-2 lattice, so a homology confined to two adjacent ones
    (the unknot sits on delta in {-1, 1}) has width 2.  sigma_thin
    holds when every diagonal lies in {-sigma-1, -sigma+1}.
    """
    if not ranks:
        raise ValueError("empty rank map")
    deltas = sorted({j - 2 * i for i, j in ranks})
    width = (deltas[-1] - deltas[0]) // 2 + 1
    sigma_thin = set(deltas) <= {-sigma - 1, -sigma + 1}
    report = ThinnessReport(tuple(deltas), width, sigma_thin)
    return _KEYS.setdefault(report, report)
