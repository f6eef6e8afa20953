"""Table rows built from the package's public calls, and their checks.

A row runs one input through the calls of its workload.  Every call
goes through a module attribute (``L.qa.qa_search``), so the
traced run can rebind those names and see each call.  Checks run
after the row's clock stops and never count in its latency.
"""

import hashlib
import json

from corpus import NODE_BUDGET


class Layers:
    """The package's layer modules, as imported for this run."""

    def __init__(self, conway, diagram, invariants, homology, classify, qa):
        self.conway = conway
        self.diagram = diagram
        self.invariants = invariants
        self.homology = homology
        self.classify = classify
        self.qa = qa
        self.search_config = qa.SearchConfig(node_budget=NODE_BUDGET)


def build(L, row):
    if row.word is not None:
        return L.diagram.from_braid(list(row.word), row.strands)
    return L.diagram.build(L.conway.parse(row.symbol))


def _search(L, d, out):
    res = L.qa.qa_search(d, L.search_config)
    out["status"] = res.status
    out["nodes"] = res.nodes_visited
    if res.certified:
        out["certificate"] = res.certificate
        out["verified"] = L.qa.verify_certificate(res.certificate)


def qa_orbits(L, row):
    out = {}
    _search(L, build(L, row), out)
    return out


def homology_table(L, row):
    d = L.diagram.simplify(build(L, row))
    out = {"diagram": d}
    ranks = out["ranks"] = L.homology.khovanov_f2(d)
    out["sigma"] = L.invariants.signature(d)
    out["thin"] = L.homology.thinness(ranks, out["sigma"])
    out["jones"] = L.invariants.jones(d)
    out["det"] = L.invariants.determinant(d)
    return out


def table_rows(L, row):
    d = L.diagram.simplify(build(L, row))
    out = {"diagram": d}
    out["det"] = L.invariants.determinant(d)
    out["sigma"] = L.invariants.signature(d)
    jones = out["jones"] = L.invariants.jones(d)
    ranks = out["ranks"] = L.homology.khovanov_f2(d)
    out["thin"] = L.homology.thinness(ranks, out["sigma"])
    adequacy = L.classify.adequacy(d)
    out["jp_special"] = L.classify.jp_special(jones).jp_special
    alternating = L.diagram.is_alternating(d)
    out["evidence"] = L.classify.thickness_evidence(
        d, adequacy, alternating, ranks).kind
    _search(L, d, out)
    return out


RUNNERS = {
    "qa-orbits": qa_orbits,
    "homology-table": homology_table,
    "table-rows": table_rows,
}


def _jones_at_minus_one(jones):
    """|V(-1)| squared; exponents are doubled, so t = -1 puts i^e on x^e."""
    re = im = 0
    for e, v in jones.c.items():
        r = e % 4
        if r == 0:
            re += v
        elif r == 2:
            re -= v
        elif r == 1:
            im += v
        else:
            im -= v
    return re * re + im * im


def check(L, row, out):
    """Names of the checks this row's outputs fail; empty when all pass."""
    bad = []
    if "status" in out:
        if out["status"] == "certified" and not out["verified"]:
            bad.append("certificate-rejected")
        if (row.expect and out["status"] != "budget-exceeded"
                and out["status"] != row.expect):
            bad.append("qa-status")
    if "ranks" in out:
        d = out["diagram"]
        P = L.invariants.LaurentPoly
        euler = P()
        for (i, j), r in out["ranks"].items():
            euler = euler + P.term(r if i % 2 == 0 else -r, j)
        rhs = out["jones"] * P({1: 1, -1: 1})
        if L.diagram.components(d) % 2 == 0:
            rhs = -rhs
        if euler != rhs:
            bad.append("euler-characteristic")
    if "jones" in out and out["det"] ** 2 != _jones_at_minus_one(out["jones"]):
        bad.append("determinant")
    return bad


def record(L, row, out):
    """The per-input record written for every run; equal runs match.

    A certificate appears as a digest of its JSON form, so two runs can
    be diffed for identical certificates.
    """
    rec = {"input": row.label, "kind": row.kind}
    for key in ("status", "nodes", "det", "sigma", "jp_special", "evidence"):
        if key in out:
            rec[key] = out[key]
    if "certificate" in out:
        blob = json.dumps(L.qa.certificate_to_dict(out["certificate"]),
                          sort_keys=True)
        rec["certificate"] = hashlib.sha256(blob.encode()).hexdigest()[:16]
    if "ranks" in out:
        rec["ranks"] = sorted([i, j, r] for (i, j), r in out["ranks"].items())
        rec["width"] = out["thin"].width
    return rec
