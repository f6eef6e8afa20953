"""Quasi-alternating certificate search and verification.

The defining recursion: the unknot qualifies, and a link qualifies
when some crossing has both smoothings qualifying with determinants
adding up to the link's own.  The search explores smoothing trees of
diagrams, memoized by canonical code, pruning crossings whose two
smoothing determinants do not split the parent determinant into two
positive parts.  A returned certificate stores the whole witness tree
and can be re-audited offline from the codes alone.

Smoothings of a crossing are ordered by its sign: the 0-smoothing is
the A-smoothing at a positive crossing and the B-smoothing at a
negative one, so a diagram and its mirror produce mirrored trees.

The defining recursion quantifies over some diagram of the link, not
a fixed one, and smoothed diagrams do land in embeddings whose
additive crossings only appear after sliding a strand.  When no
crossing of a diagram works directly, the search walks the orbit of
the diagram under triangle slides and reductions breadth first,
trying each member's crossings; the chain of codes
from the original diagram to the member that finally worked is kept
on the certificate, so verification can replay every hop.

Negative outcomes are statements about the orbit the search explored,
not about the underlying link.
"""

import collections
from dataclasses import dataclass

from .diagram import (
    LinkDiagram, canonical_code, crossing_signs, from_code, graph_components,
    is_alternating, r3_moves, reduce_once, simplify, smooth,
)
from .invariants import determinant


class _BudgetStop(Exception):
    pass


@dataclass(frozen=True)
class QACertificate:
    """Witness tree node; leaves are 0-crossing unknot diagrams.

    children holds the certificates of the two smoothings in the
    (L0, L infinity) order fixed by the crossing sign; det_triple
    repeats the three determinants for audit.  Accelerated leaves
    (reduced alternating diagrams accepted without recursion) are
    marked and only appear when the search was asked for them.

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
    accelerated: bool = False
    via: tuple = ()


@dataclass(frozen=True)
class SearchConfig:
    node_budget: int = 200000
    alternating_accelerator: bool = False
    explore_moves: bool = True  # walk triangle-slide orbits on failure


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # "certified" | "no-certificate" | "budget-exceeded"
    certificate: QACertificate = None
    nodes_visited: int = 0

    @property
    def certified(self):
        return self.status == "certified"


def _smoothing_kinds(d, c):
    """(L0, L infinity) smoothing kinds at crossing c, by sign."""
    return ("A", "B") if crossing_signs(d)[c] > 0 else ("B", "A")


def _accelerator_leaf(d):
    """Reduced alternating connected diagrams with crossings."""
    return (d.n >= 1 and d.loops == 0 and is_alternating(d)
            and reduce_once(d) is None and len(graph_components(d)) == 1)


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

    def settle(code, via, cert_for_member):
        # record the witness both for the member it was found at and,
        # rebased through the hop chain, for the orbit's entry code
        memo[cert_for_member.diagram_code] = cert_for_member
        cert = cert_for_member
        if via:
            cert = QACertificate(code, cert.det, cert.chosen_crossing,
                                 cert.det_triple, cert.children,
                                 cert.accelerated, via + cert.via)
        memo[code] = cert
        return cert

    def search(d):
        code = canonical_code(d)
        if code in memo:
            return memo[code]
        det = None
        seen = {code}
        queue = collections.deque([(code, ())])
        while queue:
            mcode, via = queue.popleft()
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
            # work on the decoded canonical representative so stored
            # crossing indices survive the code round trip
            m = from_code(mcode)
            if m.n == 0:
                if m.loops == 1:
                    return settle(code, via, QACertificate(mcode, 1))
                continue
            if cfg.alternating_accelerator and _accelerator_leaf(m):
                leaf = QACertificate(mcode, determinant(m), accelerated=True)
                return settle(code, via, leaf)
            if det is None:
                det = determinant(m)
            candidates = []
            for c in range(m.n):
                k0, k1 = _smoothing_kinds(m, c)
                d0 = simplify(smooth(m, c, k0))
                d1 = simplify(smooth(m, c, k1))
                t0, t1 = determinant(d0), determinant(d1)
                if t0 >= 1 and t1 >= 1 and t0 + t1 == det:
                    candidates.append((abs(t0 - t1), c, d0, d1, t0, t1))
            # most balanced determinant split first, then crossing index
            candidates.sort(key=lambda t: t[:2])
            for _, c, d0, d1, t0, t1 in candidates:
                c0 = search(d0)
                if c0 is None:
                    continue
                c1 = search(d1)
                if c1 is None:
                    continue
                leaf = QACertificate(mcode, det, c, (det, t0, t1), (c0, c1))
                return settle(code, via, leaf)
            if not cfg.explore_moves:
                continue
            neighbours = r3_moves(m)
            if reduce_once(m) is not None:
                neighbours.append(simplify(m))
            for nb in neighbours:
                nc = canonical_code(nb)
                if nc not in seen:
                    seen.add(nc)
                    queue.append((nc, via + (nc,)))
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

    Every determinant is recomputed from the decoded diagrams, the
    additive split is rechecked, and each child code must equal the
    canonical code of the corresponding smoothing, before or after
    reduction.  Each via hop must be a triangle slide of the previous
    diagram, or its reduction; crossing
    and children are checked against the final diagram of the chain.
    Accelerated leaves must actually be reduced alternating connected
    diagrams.
    """
    try:
        d = from_code(cert.diagram_code)
    except ValueError:
        return False
    if determinant(d) != cert.det:
        return False
    for hop in cert.via:
        legal = {canonical_code(m) for m in r3_moves(d)}
        if reduce_once(d) is not None:
            legal.add(canonical_code(simplify(d)))
        if hop not in legal:
            return False
        try:
            d = from_code(hop)
        except ValueError:
            return False
    if determinant(d) != cert.det:
        return False
    if not cert.children:
        if cert.accelerated:
            return _accelerator_leaf(d)
        return d.n == 0 and d.loops == 1 and cert.det == 1
    if len(cert.children) != 2 or cert.chosen_crossing is None:
        return False
    c = cert.chosen_crossing
    if not 0 <= c < d.n:
        return False
    c0, c1 = cert.children
    if cert.det_triple != (cert.det, c0.det, c1.det):
        return False
    if c0.det < 1 or c1.det < 1 or c0.det + c1.det != cert.det:
        return False
    for kind, child in zip(_smoothing_kinds(d, c), (c0, c1)):
        s = smooth(d, c, kind)
        codes = {canonical_code(s), canonical_code(simplify(s))}
        if child.diagram_code not in codes:
            return False
        if not verify_certificate(child):
            return False
    return True


def certificate_to_dict(cert: QACertificate) -> dict:
    out = {"diagram": cert.diagram_code, "det": cert.det}
    if cert.accelerated:
        out["accelerated"] = True
    if cert.via:
        out["via"] = list(cert.via)
    if cert.children:
        out["crossing"] = cert.chosen_crossing
        out["det_triple"] = list(cert.det_triple)
        out["children"] = [certificate_to_dict(ch) for ch in cert.children]
    return out


def certificate_from_dict(data: dict) -> QACertificate:
    children = tuple(certificate_from_dict(ch)
                     for ch in data.get("children", ()))
    det_triple = data.get("det_triple")
    return QACertificate(
        diagram_code=data["diagram"],
        det=data["det"],
        chosen_crossing=data.get("crossing"),
        det_triple=tuple(det_triple) if det_triple else None,
        children=children,
        accelerated=bool(data.get("accelerated", False)),
        via=tuple(data.get("via", ())),
    )


def greene_pretzel_qa(p, q: int) -> bool:
    """Pretzel criterion: P(p1,...,pn,-q) qualifies iff q > min(p).

    Valid for n >= 2 strands of p_i >= 2 positive crossings against
    one strand of q >= 1 negative ones.
    """
    p = tuple(p)
    if len(p) < 2:
        raise ValueError("need at least two positive strands")
    if any(x < 2 for x in p):
        raise ValueError("positive entries must be at least 2")
    if q < 1:
        raise ValueError("q must be at least 1")
    return q > min(p)
