"""Quasi-alternating certificate search and verification.

The defining recursion: the unknot qualifies, and a link qualifies
when some crossing has both smoothings qualifying with determinants
adding up to the link's own.  The search explores smoothing trees of
diagrams, memoized by canonical code, pruning crossings whose two
smoothing determinants do not split the parent determinant into two
positive parts.  A node's determinant and both smoothing
determinants of every crossing come from one elimination of its
reduced Goeritz matrix (invariants.smoothing_determinants); crossing
signs are read only when some crossing passes that test, and smoothed
diagrams are built only for the crossings the search recurses into.
A returned certificate stores the whole witness tree and can be
re-audited offline from the codes alone; the audit recomputes each
determinant as a minor of the diagram the code stands for
(invariants.determinant), independently of that shortcut.

Smoothings of a crossing are ordered by its sign: the 0-smoothing is
the A-smoothing at a positive crossing and the B-smoothing at a
negative one, so a diagram and its mirror produce mirrored trees.

The defining recursion quantifies over some diagram of the link, not
a fixed one, and smoothed diagrams do land in embeddings whose
additive crossings only appear after sliding a strand.  When no
crossing of a diagram works directly, the search always walks the
orbit of the diagram under triangle slides and reductions breadth
first, trying each member's crossings; the chain of codes from the
original diagram to the member that finally worked is kept on the
certificate, so verification can replay every hop.

The search holds each orbit member in two labellings.  Its frame is
the diagram as it arrived in the queue: the reduced input or
smoothing a search starts from, a reduction hop, or a slide built in
the frame of the member it was slid from, so a run of slides keeps
the labelling it began in.
Its canonical representative, the diagram from_code would decode
from its code, is relabelled from the frame by the crossing map that
canonical_code fills in, so no code is decoded.  Everything that
names a crossing is read off the representative, so the crossing
indices a certificate stores survive the code round trip: the
determinants and the candidate order, the crossing signs and with
them the smoothing kinds, the chosen crossing, and the reduction hop,
since reduce_once picks the kink or bigon with the smallest plug.

The slides and both smoothings of a candidate crossing are built in
the frame.  Crossing c of the representative is the frame crossing f
with labels[f] >> 2 == c, at most turned by half, and a half turn
maps the A smoothing's plug pairs to A's and B's to B's, so the
smoothing kind carries over.  r3_moves lists the frame's slides in
the order of the representative's triangles, so the breadth-first
order, the node counts and the certificates are the ones a search on
representatives alone would make.  A member reached by a triangle
slide leaves out the slide back through the triangle it was slid
through, named by the move's own undo plug: that slide's code is the
previous member's, already seen, so it is neither built nor coded.

One search codes each plug table once: the call keeps a dict from
the table and its loop count to the code and its crossing map, and
drops it when it returns.  Building in the frame is what makes a
diagram come back as the same table.  Two slides that commute reach
one table in either order, and a crossing smoothed at two members a
slide apart gives one table, where the two representatives would
label each result two ways.  A reduced smoothing's code does not
depend on the labelling it was smoothed in, which the tests check on
random closures, though reduce_once's choice does.

The audit walks representatives only.  It decodes the root, and
relabels each hop and each child from the diagram it has just built
and coded, which is the representative of the code it checked.

Negative outcomes are statements about the orbit the search explored,
not about the underlying link.
"""

import collections
from dataclasses import dataclass, replace

from .diagram import (
    LinkDiagram, canonical_code, crossing_signs, from_code, r3_moves,
    reduce_once, relabel, simplify, smooth,
)
from .invariants import determinant, smoothing_determinants


class _BudgetStop(Exception):
    pass


# slots: callers keep whole trees of these, and a node is small
@dataclass(frozen=True, slots=True)
class QACertificate:
    """Witness tree node; leaves are 0-crossing unknot diagrams.

    children holds the certificates of the two smoothings in the
    (L0, L infinity) order fixed by the crossing sign, each under the
    canonical code of the reduced smoothing; det_triple repeats the
    three determinants for audit.

    via lists the canonical codes of the diagrams hopped through
    (triangle slides, or a reduction) to reach the embedding whose
    crossing is chosen; empty means the crossing lives in diagram_code
    itself.  chosen_crossing and children always refer to the last
    diagram of the chain.
    """
    diagram_code: str
    det: int
    chosen_crossing: int = None
    det_triple: tuple = None
    children: tuple = ()
    via: tuple = ()


@dataclass(frozen=True)
class SearchConfig:
    """node_budget caps the orbit members the whole search may visit."""
    node_budget: int = 200000


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # "certified" | "no-certificate" | "budget-exceeded"
    certificate: QACertificate = None
    nodes_visited: int = 0

    @property
    def certified(self):
        return self.status == "certified"


def _smoothing_kinds(sign):
    """(L0, L infinity) smoothing kinds at a crossing of this sign."""
    return ("A", "B") if sign > 0 else ("B", "A")


def _hops(m, coder, src=None, labels=None, back=None):
    """One orbit step from the representative m: its triangle slides,
    then its reduction when it has one, each as (code, diagram, labels,
    back) where relabel(diagram, labels) is the hop's canonical
    representative and back is the plug of diagram whose triangle
    slides back (None after a reduction).  coder(diagram, labels) is
    canonical_code or the search's memo of it.

    The slides are built in the frame src, with relabel(src, labels)
    == m, and come in the order of m's own slides; the audit leaves src
    out and walks m.  r3_moves leaves out the slide through the
    triangle of src with a dart leaving plug back, which returns to
    the member src was slid from, so it is never built or coded.  The
    reduction is m's, built from m; simplify carries on from the
    reduction already found instead of finding it again."""
    for move, undo in r3_moves(m if src is None else src, back, labels):
        hop_labels = {}
        yield coder(move, hop_labels), move, hop_labels, undo
    reduced = reduce_once(m)
    if reduced is not None:
        s, hop_labels = simplify(reduced), {}
        yield coder(s, hop_labels), s, hop_labels, None


def qa_search(d: LinkDiagram, cfg: SearchConfig = None) -> SearchOutcome:
    """Look for a quasi-alternating witness tree under the diagram.

    Memoization is keyed on canonical codes, so revisited smoothings
    (common: twist regions produce the same child many ways) are
    solved once.  Budget exhaustion aborts the whole search without
    memoizing the aborted node; finished subtrees stay valid.
    """
    cfg = cfg or SearchConfig()
    if cfg.node_budget < 1:
        raise ValueError("node budget must be at least 1")
    memo = {}
    visited = [0]
    codes = {}  # (plug table, loops) -> (code, labels)

    def coded(d, labels):
        # canonical_code(d, labels), each plug table coded once
        key = tuple(d.adj), d.loops
        hit = codes.get(key)
        if hit is None:
            hit = codes[key] = canonical_code(d, labels), labels
        else:
            labels.update(hit[1])
        return hit[0]

    def settle(code, via, cert):
        # record the witness both for the member it was found at and,
        # rebased through the hop chain, for the orbit's entry code
        memo[cert.diagram_code] = cert
        if via:
            cert = replace(cert, diagram_code=code, via=via + cert.via)
        memo[code] = cert
        return cert

    def search(d):
        labels = {}
        code = coded(d, labels)
        if code in memo:
            return memo[code]
        seen = {code}
        queue = collections.deque([(code, (), d, labels, None)])
        while queue:
            mcode, via, src, labels, back = queue.popleft()
            if mcode in memo:
                hit = memo[mcode]
                if hit is None:
                    # everything reachable from this member is already
                    # known dead; skip it without expanding
                    continue
                return settle(code, via, hit)
            if visited[0] >= cfg.node_budget:
                raise _BudgetStop()
            visited[0] += 1
            # name crossings on the canonical representative, which is
            # from_code(mcode), so stored crossing indices survive the
            # code round trip; build slides and smoothings in src
            m = relabel(src, labels)
            if m.n == 0:
                if m.loops == 1:
                    return settle(code, via, QACertificate(mcode, 1))
                continue
            det, pairs = smoothing_determinants(m)
            # the split test and the balance are symmetric in the pair,
            # so the signs that order it are read only when one passes
            candidates = [(abs(ta - tb), c, ta, tb)
                          for c, (ta, tb) in enumerate(pairs)
                          if ta >= 1 and tb >= 1 and ta + tb == det]
            # most balanced determinant split first, then crossing index
            candidates.sort()
            if candidates:
                signs = crossing_signs(m)
                in_frame = {x >> 2: f for f, x in labels.items()}
            for _, c, ta, tb in candidates:
                k0, k1 = _smoothing_kinds(signs[c])
                t0, t1 = (ta, tb) if k0 == "A" else (tb, ta)
                c0 = search(simplify(smooth(src, in_frame[c], k0)))
                if c0 is None:
                    continue
                c1 = search(simplify(smooth(src, in_frame[c], k1)))
                if c1 is None:
                    continue
                leaf = QACertificate(mcode, det, c, (det, t0, t1), (c0, c1))
                return settle(code, via, leaf)
            for nc, hop, hop_labels, hop_back in _hops(m, coded, src,
                                                       labels, back):
                if nc not in seen:
                    seen.add(nc)
                    queue.append((nc, via + (nc,), hop, hop_labels, hop_back))
        for mcode in seen:
            memo[mcode] = None
        return None

    try:
        cert = search(simplify(d))
    except _BudgetStop:
        return SearchOutcome("budget-exceeded", None, visited[0])
    status = "certified" if cert is not None else "no-certificate"
    return SearchOutcome(status, cert, visited[0])


def verify_certificate(cert: QACertificate) -> bool:
    """Re-audit a witness tree from its stored codes alone.

    Every determinant is recomputed, the additive split is rechecked,
    and each child code must equal the canonical code of the reduced
    smoothing, the only form the search writes.  Each via hop must be
    one orbit step of the previous diagram, the same step the search
    takes with nothing left out; crossing and children are checked
    against the final diagram of the chain, and a leaf must be the
    0-crossing unknot.  Only the root is decoded: every other diagram
    audited is relabelled from the one that was just coded, into the
    canonical representative of the code it was checked against.
    Fields of the wrong type, as JSON can carry, fail the audit rather
    than raise; every determinant must be an int, since True == 1 and
    3.0 == 3 would otherwise pass.

    A search certificate shares subtrees: one memoized node object can
    hang under several parents.  A node's audit does not depend on its
    parent, so each distinct node object is audited once per call.
    """
    passed = set()  # ids of nodes that passed; the tree keeps them alive

    def audit(node, d):
        if id(node) in passed:
            return True
        if not _audit_node(node, d, audit):
            return False
        passed.add(id(node))
        return True

    if not isinstance(cert.diagram_code, str):
        return False
    try:
        root = from_code(cert.diagram_code)
    except ValueError:
        return False
    return audit(cert, root)


def _audit_node(cert, d, audit):
    """verify_certificate's checks of one node, whose code decodes to
    d, auditing its children through audit."""
    if type(cert.det) is not int or determinant(d) != cert.det:
        return False
    for hop in cert.via:
        for code, m, labels, _ in _hops(d, canonical_code):
            if code == hop:
                break
        else:
            return False
        d = relabel(m, labels)
    if cert.via and determinant(d) != cert.det:
        return False
    if not cert.children:
        return d.n == 0 and d.loops == 1 and cert.det == 1
    if len(cert.children) != 2:
        return False
    c = cert.chosen_crossing
    if type(c) is not int or not 0 <= c < d.n:
        return False
    c0, c1 = cert.children
    if cert.det_triple != (cert.det, c0.det, c1.det):
        return False
    if any(type(x) is not int for x in cert.det_triple):
        return False
    for kind, child in zip(_smoothing_kinds(crossing_signs(d)[c]), (c0, c1)):
        s, labels = simplify(smooth(d, c, kind)), {}
        if child.diagram_code != canonical_code(s, labels):
            return False
        if not audit(child, relabel(s, labels)):
            return False
    # both child determinants are now audited integers
    return c0.det >= 1 and c1.det >= 1 and c0.det + c1.det == cert.det


def certificate_to_dict(cert: QACertificate) -> dict:
    out = {"diagram": cert.diagram_code, "det": cert.det}
    if cert.via:
        out["via"] = list(cert.via)
    if cert.children:
        out["crossing"] = cert.chosen_crossing
        out["det_triple"] = list(cert.det_triple)
        out["children"] = [certificate_to_dict(ch) for ch in cert.children]
    return out


def certificate_from_dict(data: dict) -> QACertificate:
    """Inverse of certificate_to_dict.  Only the JSON shape is checked
    here (ValueError); every value is left to verify_certificate."""
    if not isinstance(data, dict) or not {"diagram", "det"} <= data.keys():
        raise ValueError("a certificate node needs 'diagram' and 'det'")
    children, via, triple = (data.get(key, ())
                             for key in ("children", "via", "det_triple"))
    if not all(isinstance(x, (list, tuple)) for x in (children, via, triple)):
        raise ValueError("'children', 'via' and 'det_triple' must be arrays")
    return QACertificate(
        diagram_code=data["diagram"],
        det=data["det"],
        chosen_crossing=data.get("crossing"),
        det_triple=tuple(triple) or None,
        children=tuple(certificate_from_dict(ch) for ch in children),
        via=tuple(via),
    )
