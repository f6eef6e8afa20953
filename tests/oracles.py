"""Independent cross-checks used by the test suite.

Everything here is implemented from first principles, separately from
the package code, so that agreement is meaningful. The main tool is the
unreduced (numerator, denominator) determinant pair of an algebraic
tangle:

    pair(integer n)   = (n, 1)
    pair(flip T)      = swapped pair
    pair(A + B)       = (n_A d_B + n_B d_A, d_A d_B), never reduced

det of the numerator closure of T is |n|. The rules are the classical
series/parallel (Kirchhoff) identities for the Goeritz determinant, so
they hold for every algebraic (non-polyhedral) symbol.

brute_canonical_code reads a diagram's code from every start to the
end and keeps the smallest, the definition that the package's
lockstep read prunes.

dart_faces walks the faces dart by dart, as (p, q) tuples, and
r3_moves_every_arc slides every same-level arc of every triangle, so
each move comes once from its top strand and once from its bottom
strand; the package lists each face by the plugs its darts leave from
and returns one slide per triangle.

joined_plugs joins plugs by union-find over the arcs and given slot
pairs at every crossing, with the parity of each plug's distance from
the smallest plug of its class; union_find_circles and
union_find_strands use it for the state circles and the components,
which the package finds by walking them.

cube_bracket is the Kauffman bracket as the plain 2^n state sum over
the circle counts of union_find_circles; the package scans the
crossings one at a time instead.

cube_khovanov_f2 builds the whole unreduced 2^n cube of resolutions
over F2, both labels on every circle, from union_find_circles and the
public crossing_signs alone; the package builds only the marked-circle
subcomplex and tensors its ranks with V, or scans the crossings one at
a time.  d_squared_zero checks d∘d = 0 on the package's own complexes,
the cube's blocks or the scan's complex after every crossing; only
tests build them for that, so the check lives here.

mirror switches every crossing by turning its slots, the plug
arithmetic of one step counter clockwise; the package mirrors only
syntax trees, negating their twist counts, and no caller of it needs
a mirrored diagram.

checkerboard colors the faces of dart_faces by a search over their
dart adjacency, and checkerboard_goeritz builds the Goeritz
matrix from it; minor_smoothing_determinants reads each crossing's
contraction as a minor of that matrix, eliminated over the rationals.
The package colors by corner alternation and reads every contraction
off one adjugate.

fraction_sym_signature is Lagrange's reduction of a symmetric matrix
over the rationals; the package runs the same pivots on integers.

walk_fuse joins arcs through connector plugs by walking every arc
from every surviving plug to its far end; the package walks only the
connector chains and copies the other arcs.  arithmetic_find_kink and
arithmetic_find_bigon find the kink and bigon with the smallest plug
by crossing and slot arithmetic; the package tests plug bits.

render writes a syntax tree back as a symbol, and symbol_crossings
counts a symbol's crossings before reduction; the package reads
symbols and never writes them, so these live here with the tests that
read them.

copying_smooth and copying_reduce_once smooth a crossing and remove a
kink or bigon on a dict copy of the plug table with walk_fuse and the
arithmetic finders, deleting a bigon's two arcs before fusing the
crossings' outer plugs, and renumber every plug of what is left
through without_crossings; the package patches a copy of the table,
walks only the chains through the dropped plugs, fuses a bigon
straight through and finds a kink or bigon in one pass.
"""

from fractions import Fraction

from qalinks import conway
from qalinks import homology as H
from qalinks.conway import Poly, Prod, Ram, Seq
from qalinks.diagram import (
    DisconnectedDiagramError, LinkDiagram, _through, crossing_signs,
    graph_components,
)
from qalinks.invariants import LaurentPoly


class OracleUnsupported(Exception):
    pass


# --- symbol writers ----------------------------------------------------

_ONE = Seq((1,))


def _lead_run(k):
    return ":" * (k // 2) + ("." if k % 2 else "")


def _mid_run(k):
    return ":" * ((k + 1) // 2) + ("." if k % 2 == 0 else "")


def _render_seq(node):
    head = node.terms[0]
    if head < 0 and head != -1 and all(t <= 0 for t in node.terms):
        return "-" + " ".join(str(-t) for t in node.terms)
    signs = [t for t in node.terms if t]
    if any(a < 0 < b for a, b in zip(signs, signs[1:])):
        # a "-" negates every term after it in the run, so a positive
        # term after a negative one is written as the mirror's mirror
        return "-(" + " ".join(str(-t) for t in node.terms) + ")"
    return " ".join(str(t) for t in node.terms)


def _render_part(node):
    """node as one part of a comma join: a join inside a join is a
    group."""
    if isinstance(node, Ram):
        return "(" + _render_tangle(node) + ")"
    return _render_tangle(node)


def _render_tangle(node):
    if isinstance(node, Seq):
        return _render_seq(node)
    if isinstance(node, Ram):
        if len(node.parts) == 1:
            # a join of one part is written as its mirror and a "-"
            return _render_part(conway.mirror_expr(node.parts[0])) + "-"
        return ",".join(_render_part(p) for p in node.parts)
    if isinstance(node, Prod):
        out = []
        prev = None
        for f in node.factors:
            # a bare sequence would run on into a sequence before it
            if isinstance(f, Seq) and not isinstance(prev, Seq):
                out.append(_render_seq(f))
            else:
                out.append("(" + _render_tangle(f) + ")")
            prev = f
        return " ".join(out)
    raise TypeError("cannot render %r here" % type(node).__name__)


def render(node) -> str:
    """Write a syntax tree back as a Conway symbol.

    parse resolves twist marks and "-( )" groups, so a tree has many
    spellings; render writes one that parses back to the same tree,
    with every basis written and no "+" mark.
    """
    if not isinstance(node, Poly):
        return _render_tangle(node)
    slots = list(node.slots)
    last = -1
    for j, s in enumerate(slots):
        if s != _ONE:
            last = j
    if last < 0:
        return node.basis
    out = []
    pending = 0
    started = False
    for s in slots[:last + 1]:
        if s == _ONE:
            pending += 1
            continue
        out.append(_mid_run(pending) if started else _lead_run(pending))
        out.append(_render_tangle(s))
        started = True
        pending = 0
    return node.basis + "".join(out)


def symbol_crossings(node) -> int:
    """Crossing count of the diagram a symbol denotes (before reduction)."""
    if isinstance(node, Seq):
        return sum(abs(t) for t in node.terms)
    if isinstance(node, Ram):
        return sum(symbol_crossings(p) for p in node.parts)
    if isinstance(node, Prod):
        return sum(symbol_crossings(f) for f in node.factors)
    if isinstance(node, Poly):
        return sum(symbol_crossings(s) for s in node.slots)
    raise TypeError(type(node).__name__)


def cf_value(terms):
    """Continued fraction a_n + 1/(a_{n-1} + ... + 1/a_1), nested eval."""
    value = Fraction(terms[0])
    for t in terms[1:]:
        if value == 0:
            raise ZeroDivisionError
        value = Fraction(t) + 1 / value
    return value


def _pair_add(a, b):
    return (a[0] * b[1] + b[0] * a[1], a[1] * b[1])


def tangle_pair(node):
    """Unreduced (numerator det, denominator det) of an algebraic tangle."""
    if isinstance(node, Seq):
        pair = None
        for t in node.terms:
            if pair is None:
                pair = (t, 1)
            else:
                pair = _pair_add((pair[1], pair[0]), (t, 1))
        return pair
    if isinstance(node, Ram):
        pair = (0, 1)
        for part in node.parts:
            n, d = tangle_pair(part)
            pair = _pair_add(pair, (d, n))
        return pair
    if isinstance(node, Prod):
        pair = tangle_pair(node.factors[0])
        for f in node.factors[1:]:
            n, d = tangle_pair(f)
            pair = _pair_add((pair[1], pair[0]), (n, d))
        return pair
    if isinstance(node, Poly):
        raise OracleUnsupported("polyhedral")
    raise OracleUnsupported(type(node).__name__)


def symbol_det(text) -> int:
    """Determinant of the link named by an algebraic Conway symbol."""
    n, _ = tangle_pair(conway.parse(text))
    return abs(n)


def code_from(d, start, side):
    """Rows of start's piece, read breadth first from slot side of
    crossing start; a crossing gets its id and slot offset when first
    seen."""
    newid = {start: 0}
    offset = {start: side}
    order = [start]
    code = []
    for c in order:
        row = []
        for k in range(4):
            q = d.adj[4 * c + (offset[c] + k) % 4]
            e = q // 4
            if e not in newid:
                newid[e] = len(order)
                offset[e] = q % 4 - q % 2
                order.append(e)
            row.append((newid[e], (q - offset[e]) % 4))
        code.append(tuple(row))
    return tuple(code)


def brute_canonical_code(d) -> str:
    """canonical_code by brute force: each piece's code is the min of
    its full codes from all starts (crossing, slot 0 or 2), and the
    pieces are sorted."""
    pieces, covered = [], set()
    for c0 in range(d.n):
        if c0 in covered:
            continue
        piece, stack = {c0}, [c0]
        while stack:
            c = stack.pop()
            for s in range(4):
                e = d.adj[4 * c + s] // 4
                if e not in piece:
                    piece.add(e)
                    stack.append(e)
        covered |= piece
        pieces.append(min(code_from(d, c, side)
                          for c in piece for side in (0, 2)))
    body = ";".join(
        ",".join(" ".join("%d.%d" % pq for pq in row) for row in code)
        for code in sorted(pieces))
    return body + "|%d" % d.loops


def dart_faces(d):
    """Faces as cycles of darts (p, q), darts taken in sorted order;
    the next dart leaves from the plug one step counter clockwise of
    q."""
    out, seen = [], set()
    for start in enumerate(d.adj):
        if start in seen:
            continue
        face, dart = [], start
        while dart not in seen:
            seen.add(dart)
            face.append(dart)
            q = dart[1]
            r = q - q % 4 + (q + 1) % 4
            dart = (r, d.adj[r])
        out.append(tuple(face))
    return out


def r3_moves_every_arc(d):
    """One diagram per same-level arc of every triangle whose three
    crossings differ and whose nine surrounding arcs leave it."""
    out = []
    opp = lambda x: x - x % 4 + (x + 2) % 4
    for face in dart_faces(d):
        if len(face) != 3 or len({q // 4 for _, q in face}) != 3:
            continue
        for i in range(3):
            sa, sb = face[i]
            if sa % 2 != sb % 2:
                continue
            uc, ua = face[(i + 2) % 3]
            vb, vc = face[(i + 1) % 3]
            inner = (sa, sb, ua, uc, vb, vc)
            tri = set(inner) | {opp(x) for x in inner}
            ext = {x: d.adj[opp(x)] for x in inner}
            if set(ext.values()) & tri:
                continue
            adj = list(d.adj)
            # each strand passes its two crossings in the other order
            for a, b in ((ext[sa], sb), (opp(sb), opp(sa)), (sa, ext[sb]),
                         (ext[ua], uc), (opp(uc), opp(ua)), (ua, ext[uc]),
                         (ext[vb], vc), (opp(vc), opp(vb)), (vb, ext[vc])):
                adj[a], adj[b] = b, a
            out.append(LinkDiagram(d.n, adj, d.loops))
    return out


def joined_plugs(d, slot_pairs):
    """Union-find over the arcs of d and the plug pairs (4c + s, 4c + t)
    for (s, t) in slot_pairs[c] at every crossing c.

    Returns (classes, odd): the classes as sorted plug lists in order of
    their smallest plugs, and the set of plugs an odd number of joins
    away from the smallest plug of their class.  Arcs and slot pairs
    alternate around every class, so the parity is well defined."""
    parent, flip = list(range(4 * d.n)), [0] * (4 * d.n)

    def find(p):  # root of p; flip[p] becomes p's parity to it
        q = parent[p]
        if q != p:
            parent[p] = find(q)
            flip[p] ^= flip[q]
        return parent[p]

    joins = list(enumerate(d.adj))
    for c, pairs in enumerate(slot_pairs):
        joins += [(4 * c + s, 4 * c + t) for s, t in pairs]
    for a, b in joins:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            flip[ra] = flip[a] ^ flip[b] ^ 1
    classes = {}
    for p in range(4 * d.n):
        classes.setdefault(find(p), []).append(p)
    odd = {p for members in classes.values() for p in members
           if flip[p] != flip[members[0]]}
    return sorted(classes.values()), odd


def union_find_circles(d, state):
    """joined_plugs of the state: bit c set joins slots (0,3) and (1,2)
    of crossing c (B), clear joins (0,1) and (2,3) (A)."""
    return joined_plugs(d, [((0, 3), (1, 2)) if state >> c & 1
                            else ((0, 1), (2, 3)) for c in range(d.n)])


def union_find_strands(d):
    """joined_plugs with each crossing's strands passing straight
    through, slots (0,2) and (1,3): one class per component that meets
    a crossing."""
    return joined_plugs(d, [((0, 2), (1, 3))] * d.n)


def cube_bracket(d):
    """Kauffman bracket, 1 on a single circle: every state weighs
    A^(#A - #B) times delta^(circles - 1), delta = -A^2 - A^-2."""
    counts = {}
    for state in range(1 << d.n):
        key = (d.n - 2 * state.bit_count(),
               len(union_find_circles(d, state)[0]) + d.loops)
        counts[key] = counts.get(key, 0) + 1
    delta = LaurentPoly({2: -1, -2: -1})
    out = LaurentPoly()
    for (exp, circles), mult in counts.items():
        out = out + LaurentPoly.term(mult, exp) * delta ** (circles - 1)
    return out


def _cube(d):
    """Column numbering and differential rows per (r, j) block of the
    full cube: r one-smoothings, labelings x over all circles (bit set
    = x), j = r + n_plus - 2 n_minus + #1 - #x."""
    n_plus = sum(1 for s in crossing_signs(d) if s > 0)
    n_minus = d.n - n_plus
    # per state: plug -> circle index, each circle's smallest plug, and
    # the circle count with the free loops as the last d.loops indices
    lab, first, ks = [], [], []
    for mask in range(1 << d.n):
        circles, _ = union_find_circles(d, mask)
        here = [0] * (4 * d.n)
        for i, circle in enumerate(circles):
            for p in circle:
                here[p] = i
        lab.append(here)
        first.append([circle[0] for circle in circles])
        ks.append(len(circles) + d.loops)
    dims, col = {}, []
    for mask, k in enumerate(ks):
        r = mask.bit_count()
        base = r + n_plus - 2 * n_minus + k
        here = []
        for x in range(1 << k):
            key = (r, base - 2 * x.bit_count())
            here.append(dims.get(key, 0))
            dims[key] = here[-1] + 1
        col.append(here)
    rows = {key: [0] * dim for key, dim in dims.items()}
    for mask, k in enumerate(ks):
        r = mask.bit_count()
        base = r + n_plus - 2 * n_minus + k
        ls = lab[mask]
        img = [0] * (1 << k)
        for c in range(d.n):
            if mask >> c & 1:
                continue
            t_mask = mask | 1 << c
            lt, ct, kt = lab[t_mask], col[t_mask], ks[t_mask]
            plugs = range(4 * c, 4 * c + 4)
            src = sorted({ls[p] for p in plugs})
            dst = sorted({lt[p] for p in plugs})
            for x in range(1 << k):
                # carry every circle the edge leaves alone by its
                # smallest plug, then merge or split the touched ones
                t = 0
                for b, p in enumerate(first[mask]):
                    if b not in src and x >> b & 1:
                        t |= 1 << lt[p]
                for i in range(kt - d.loops, kt):
                    if x >> (i - kt + k) & 1:
                        t |= 1 << i
                if len(src) == 2:  # merge: 1 1 -> 1, 1 x -> x, x x -> 0
                    on = (x >> src[0] & 1) + (x >> src[1] & 1)
                    if on < 2:
                        img[x] ^= 1 << ct[t | on << dst[0]]
                else:  # split: 1 -> 1 x + x 1, x -> x x
                    u, v = 1 << dst[0], 1 << dst[1]
                    if x >> src[0] & 1:
                        img[x] ^= 1 << ct[t | u | v]
                    else:
                        img[x] ^= 1 << ct[t | u] ^ 1 << ct[t | v]
        for x, idx in enumerate(col[mask]):
            rows[(r, base - 2 * x.bit_count())][idx] = img[x]
    return dims, rows, n_minus


def _f2_rank(rows):
    pivots = {}
    for row in rows:
        while row:
            b = row.bit_length() - 1
            if b not in pivots:
                pivots[b] = row
                break
            row ^= pivots[b]
    return len(pivots)


def cube_khovanov_f2(d) -> dict:
    """F2 Khovanov ranks (i, j) -> dimension of the full cube."""
    dims, rows, n_minus = _cube(d)
    rank_d = {key: _f2_rank(rws) for key, rws in rows.items()}
    ranks = {}
    for (r, j), dim in sorted(dims.items()):
        h = dim - rank_d.get((r, j), 0) - rank_d.get((r - 1, j), 0)
        if h:
            ranks[(r - n_minus, j)] = h
    return ranks


def _rows_square_to_zero(rows) -> bool:
    """Each row of block (r, j), a bitmask over the columns of block
    (r + 1, j), composed with that block's rows gives 0."""
    for (r, j), rws in rows.items():
        nxt = rows.get((r + 1, j))
        for row in rws if nxt else ():
            acc = 0
            while row:
                b = row & -row
                acc ^= nxt[b.bit_length() - 1]
                row ^= b
            if acc:
                return False
    return True


def cube_d_squared_zero(d) -> bool:
    """d∘d = 0 on every block of the full cube."""
    return _rows_square_to_zero(_cube(d)[1])


def d_squared_zero(d) -> bool:
    """d∘d = 0 on the complex khovanov_f2 builds: below SCAN_FROM
    crossings on the blocks of the package's marked-circle cube, from
    SCAN_FROM up on the scan's complex after every crossing."""
    if d.n >= H.SCAN_FROM:
        return all(squares_to_zero(out, compose)
                   for _, out, compose in H._complexes(d))
    return _rows_square_to_zero(H._blocks(d)[1])


def squares_to_zero(out, compose) -> bool:
    """d∘d = 0 on one of the scan's complexes: the composites of the
    entries s -> b -> t sum to 0 for every s and t."""
    for s, row in out.items():
        acc = {}
        for b, f in row.items():
            for t, g in out[b].items():
                acc[t] = acc.get(t, 0) ^ compose(s, b, t, f, g)
        if any(acc.values()):
            return False
    return True


def mirror(d):
    """d with every crossing switched: each crossing's slots turned one
    step counter clockwise, plug 4c + s renamed 4c + (s + 1) % 4."""
    turn = [p & ~3 | p + 1 & 3 for p in range(4 * d.n)]
    adj = [0] * (4 * d.n)
    for p, q in enumerate(d.adj):
        adj[turn[p]] = turn[q]
    return LinkDiagram(d.n, adj, d.loops)


def checkerboard(d):
    """Faces plus a proper 2-coloring (0/1) of the face adjacency, face
    0 colored 0."""
    if d.n == 0:
        raise DisconnectedDiagramError("no crossings to color around")
    fs = dart_faces(d)
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


def checkerboard_goeritz(d, color):
    """(Goeritz matrix, etas, face rows) of the faces of one color, in
    the package's _goeritz layout: a row per face of the color in face
    order, eta 1 where those faces sit at corners 0 and 2 (corner s
    between slots s and s+1), and each crossing's two rows in corner
    order."""
    fs, colors = checkerboard(d)
    corner = {}
    for i, face in enumerate(fs):
        for _, q in face:
            corner[q] = i
    row = {}
    for i, col in enumerate(colors):
        if col == color:
            row[i] = len(row)
    g = [[0] * len(row) for _ in row]
    etas, rows = [], []
    for c in range(d.n):
        here = [corner[4 * c + s] for s in range(4)]
        pair = [s for s in range(4) if colors[here[s]] == color]
        if pair not in ([0, 2], [1, 3]):
            raise AssertionError("corners do not alternate")
        eta = 1 if pair == [0, 2] else -1
        i, j = row[here[pair[0]]], row[here[pair[1]]]
        etas.append(eta)
        rows.append((i, j))
        if i != j:
            g[i][j] -= eta
            g[j][i] -= eta
            g[i][i] += eta
            g[j][j] += eta
    return g, etas, rows


def fraction_det(m):
    """Determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for i in range(len(m)):
        pivot = next((r for r in range(i, len(m)) if m[r][i]), None)
        if pivot is None:
            return 0
        if pivot != i:
            m[i], m[pivot] = m[pivot], m[i]
            det = -det
        det *= m[i][i]
        for r in range(i + 1, len(m)):
            f = m[r][i] / m[i][i]
            m[r] = [x - f * y for x, y in zip(m[r], m[i])]
    return int(det)


def minor_smoothing_determinants(d):
    """(det of the A smoothing, det of the B smoothing) at each crossing
    by deletion-contraction on the Tait graph: the contraction is the
    Goeritz minor without both faces' rows, the deletion det - eta *
    contraction, and a loop edge contracts to determinant 0."""
    if d.loops or len(graph_components(d)) != 1:
        return [(0, 0)] * d.n
    g, etas, rows = checkerboard_goeritz(d, 0)

    def minor(drop):
        keep = [r for r in range(len(g)) if r not in drop]
        return [[g[r][s] for s in keep] for r in keep]

    whole = fraction_det(minor((0,)))
    out = []
    for eta, (i, j) in zip(etas, rows):
        con = 0 if i == j else fraction_det(minor((i, j)))
        dele = abs(whole - eta * con)
        out.append((dele, abs(con)) if eta == 1 else (abs(con), dele))
    return out


def fraction_sym_signature(m):
    """Signature of a symmetric matrix by Lagrange's reduction over the
    rationals: a nonzero diagonal pivot counts its sign, and with the
    diagonal all zero a nonzero pair splits off a hyperbolic plane."""
    m = [[Fraction(x) for x in row] for row in m]
    sig = 0
    while m:
        n = len(m)
        pivot = next((i for i in range(n) if m[i][i]), None)
        if pivot is not None:
            i = pivot
            a = m[i][i]
            sig += 1 if a > 0 else -1
            rest = [r for r in range(n) if r != i]
            m = [[m[r][t] - m[r][i] * m[i][t] / a for t in rest]
                 for r in rest]
            continue
        off = next(((i, j) for i in range(n) for j in range(i + 1, n)
                    if m[i][j]), None)
        if off is None:
            break
        i, j = off
        b = m[i][j]
        rest = [r for r in range(n) if r not in (i, j)]
        m = [[m[r][t] - (m[r][i] * m[j][t] + m[r][j] * m[i][t]) / b
              for t in rest] for r in rest]
    return sig


def walk_fuse(arcs, pairs):
    """diagram.fuse by a walk from every surviving plug: each arc is
    followed through the connectors to its far end, and the connector
    chains no walk met are the new loops, each listed by its first
    plug in the order of pairs."""
    loops = []
    link = {}
    for a, b in pairs:
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
        out[p] = q
        out[q] = p
    # connector chains that close on themselves are new loops
    for p in link:
        if p in seen:
            continue
        loops.append(p)
        q = p
        while q not in seen:
            seen.add(q)
            q = link[q]
            seen.add(q)
            q = arcs[q]
    return out, loops


def arithmetic_find_kink(d):
    """The arc with the smallest plug that joins two neighbouring slots
    of one crossing."""
    for a, b in enumerate(d.adj):
        if a // 4 == b // 4 and a < b and (b - a) % 4 in (1, 3):
            return a, b
    return None


def arithmetic_find_bigon(d):
    """The arc with the smallest plug that, with an arc next to it at
    both ends, bounds a bigon whose strands stay on one level; both
    arcs."""
    for a, b in enumerate(d.adj):
        if a >= b or a // 4 == b // 4:
            continue
        c, e = a // 4, b // 4
        for s in ((a % 4 + 1) % 4, (a % 4 - 1) % 4):
            a2 = 4 * c + s
            b2 = d.adj[a2]
            if b2 // 4 != e:
                continue
            if (b2 % 4 - b % 4) % 4 not in (1, 3):
                continue
            if (a + b) % 2 == 0 and (a2 + b2) % 2 == 0:
                return (a, b), (a2, b2)
    return None


def without_crossings(n, arcs, loops, dead):
    """The diagram of an arc dict over the plugs of n crossings, as
    walk_fuse returns it, with the dead crossings gone: the others are
    numbered 0, 1, ... in their old order, and every plug is renamed
    through that numbering."""
    ids = {c: k for k, c in enumerate(c for c in range(n) if c not in dead)}
    adj = [None] * (4 * len(ids))
    for p, q in arcs.items():
        adj[4 * ids[p // 4] + p % 4] = 4 * ids[q // 4] + q % 4
    return LinkDiagram(len(ids), adj, loops)


def copying_smooth(d, c, kind):
    """smooth on a dict copy of the plug table."""
    slots = {"A": [(0, 1), (2, 3)], "B": [(0, 3), (1, 2)]}[kind]
    pairs = [(4 * c + s, 4 * c + t) for s, t in slots]
    arcs, loops = walk_fuse(dict(enumerate(d.adj)), pairs)
    return without_crossings(d.n, arcs, d.loops + len(loops), {c})


def copying_reduce_once(d):
    """reduce_once on a dict copy: a kink is smoothed off and its loop
    dropped; a bigon's two arcs are deleted and the outer plugs of its
    crossings fused across."""
    kink = arithmetic_find_kink(d)
    if kink:
        a, b = kink
        s = copying_smooth(d, a // 4, "A" if (a + b) % 4 == 1 else "B")
        return LinkDiagram(s.n, s.adj, s.loops - 1)
    bigon = arithmetic_find_bigon(d)
    if bigon:
        (a, b), (a2, b2) = bigon
        arcs = dict(enumerate(d.adj))
        for p in (a, b, a2, b2):
            del arcs[p]
        pairs = [(_through(a), _through(b)), (_through(a2), _through(b2))]
        arcs, loops = walk_fuse(arcs, pairs)
        return without_crossings(d.n, arcs, d.loops + len(loops),
                                 {a // 4, b // 4})
    return None
