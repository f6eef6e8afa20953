"""Certificate search, verification, and the extension operator."""

import collections
import hashlib
import json
import random
from dataclasses import replace

import pytest

from qalinks import diagram as D
from qalinks import invariants, qa
from qalinks.invariants import LaurentPoly, determinant, jones
from qalinks.qa import (
    QACertificate, SearchConfig, certificate_from_dict, certificate_to_dict,
    qa_search, verify_certificate,
)
from qalinks.classify import montesinos_qa
from qalinks.conway import conway_to_montesinos, parse

from oracles import (
    arithmetic_find_bigon, arithmetic_find_kink, brute_canonical_code,
    code_from, copying_reduce_once, copying_smooth,
)
from test_diagram import BATTERY, SYMBOLS, mixed_closures


def run(sym, **kw):
    return qa_search(D.build(sym), SearchConfig(**kw) if kw else None)


def walk(cert):
    yield cert
    for ch in cert.children:
        yield from walk(ch)


# --- positives --------------------------------------------------------


def test_unknot_is_certified():
    out = qa_search(D.build("1"))
    assert out.certified
    assert out.certificate.det == 1
    assert out.certificate.children == ()


def test_hopf_link_certificate_shape():
    out = run("2")
    assert out.certified
    cert = out.certificate
    assert cert.det_triple == (2, 1, 1)
    assert all(ch.det == 1 and ch.children == () for ch in cert.children)
    assert verify_certificate(cert)


def test_trefoil_det_triple():
    # pins the smoothing order convention: L0 carries the larger part
    out = run("3")
    assert out.certified
    assert out.certificate.det_triple == (3, 2, 1)
    assert verify_certificate(out.certificate)


@pytest.mark.parametrize("sym", ["2 2", "3 2", "2 1 2", "4 2", "3 1 3",
                                 "2 2 2 2", "5 3", "2,2,2", "2 2,2 1,-2"])
def test_small_links_certify_and_verify(sym):
    out = run(sym)
    assert out.certified, sym
    assert verify_certificate(out.certificate), sym


def test_certificate_determinants_are_additive():
    out = run("3 1 2")
    for node in walk(out.certificate):
        if node.children:
            c0, c1 = node.children
            assert node.det == c0.det + c1.det
            assert node.det_triple == (node.det, c0.det, c1.det)
            assert c0.det >= 1 and c1.det >= 1


def test_search_is_deterministic():
    a = run("2 2,2 1,-2")
    b = run("2 2,2 1,-2")
    assert a.certificate == b.certificate
    assert a.nodes_visited == b.nodes_visited


def test_canonical_representative_gives_same_certificate():
    d = D.build("3 2")
    r = D.from_code(D.canonical_code(D.simplify(d)))
    assert qa_search(d).certificate == qa_search(r).certificate


# --- negatives --------------------------------------------------------

# knots whose listed minimal diagrams admit no witness tree; the first
# four are thick in the odd theory, the fifth has a published proof,
# the sixth is the non-QA minimal diagram of a knot whose other
# minimal diagram certifies
NEGATIVE_DIAGRAMS = ["3,3,-3", "4,3,-3", "5,3,-3", "-2 1 2,3,3",
                     "-2 2,2 2,3", "(3,-2 1) (2 1,2)"]


@pytest.mark.parametrize("sym", NEGATIVE_DIAGRAMS)
def test_known_negative_diagrams(sym):
    out = run(sym)
    assert out.status == "no-certificate", sym


# (status, nodes_visited) under the default config; a change in the
# crossing order or the pruning of the search moves the node counts
SEARCH_PINS = {
    "3,3,-3": ("no-certificate", 39),
    "4,3,-3": ("no-certificate", 38),
    "5,3,-3": ("no-certificate", 119),
    "-2 1 2,3,3": ("no-certificate", 79),
    "-2 2,2 2,3": ("no-certificate", 124),
    "(3,-2 1) (2 1,2)": ("no-certificate", 109),
    "6*2.2 1.-2 0.-1.-2": ("certified", 104),
    "6*2.3 1.-2 0.-1.-2": ("certified", 115),
    "6*2.4 1.-2 0.-1.-2": ("certified", 156),
}


@pytest.mark.parametrize("sym", sorted(SEARCH_PINS))
def test_search_effort_is_pinned(sym):
    out = run(sym)
    assert (out.status, out.nodes_visited) == SEARCH_PINS[sym]


def permuted(d, rng):
    """d with its crossings renumbered and some turned by half."""
    ids = list(range(d.n))
    rng.shuffle(ids)
    return D.relabel(d, {c: 4 * ids[c] + rng.choice((0, 2))
                         for c in range(d.n)})


def test_reduced_code_ignores_the_labelling():
    # the search smooths and reduces in the labelling a member arrived
    # in, and files the result under the code the representative's
    # smoothing would get; reduce_once's choice depends on labels
    rng = random.Random(22)
    diagrams = []
    for x in mixed_closures(22, 300):
        c = rng.randrange(x.n)
        diagrams += [x, D.smooth(x, c, rng.choice("AB"))]
    for x in diagrams:
        want = D.canonical_code(D.simplify(x))
        for _ in range(10):
            assert D.canonical_code(D.simplify(permuted(x, rng))) == want


@pytest.mark.parametrize("sym", sorted(SEARCH_PINS))
def test_search_ignores_the_input_labelling(sym):
    def text(out):
        return out.certified and json.dumps(certificate_to_dict(out.certificate))

    d = D.build(sym)
    want = text(qa_search(d))
    rng = random.Random(sym)
    for _ in range(2):
        again = qa_search(permuted(d, rng))
        assert (again.status, again.nodes_visited) == SEARCH_PINS[sym]
        assert text(again) == want


def test_dead_orbit_members_are_skipped():
    # three members of this search's orbits were already settled dead
    # by an earlier orbit; expanding them instead of skipping them
    # reads 360 nodes
    d = D.from_braid([-2, 1, 3, 2, 2, 1, 2, 2, 1, -3, 2, 1, 3, -1], 4)
    out = qa_search(d)
    assert (out.status, out.nodes_visited) == ("no-certificate", 357)


def test_split_link_never_certifies():
    # determinant zero admits no additive split into positive parts
    out = run("2,2,-1")
    assert out.status == "no-certificate"


# --- move orbit exploration -------------------------------------------


def test_polyhedral_diagram_needs_slides():
    # this 11-crossing diagram certifies, but one subtree only unlocks
    # after triangle slides, so some node of its witness hops
    out = run("6*2.2 1.-2 0.-1.-2")
    assert out.certified
    assert any(node.via for node in walk(out.certificate))
    assert verify_certificate(out.certificate)


def test_polyhedral_root_split_is_unknot_plus_tangle_sum():
    out = run("6*2.2 1.-2 0.-1.-2")
    c0, c1 = out.certificate.children
    kids = {D.from_code(c0.diagram_code).n: c0, D.from_code(c1.diagram_code).n: c1}
    unknot = kids.pop(0)
    assert unknot.det == 1
    other = kids.popitem()[1]
    assert jones(D.from_code(other.diagram_code)) == jones(D.build("(2,2+) -(2 1,2)"))


@pytest.mark.parametrize("p", [2, 3, 4])
def test_polyhedral_family_certifies(p):
    out = run("6*2.%d 1.-2 0.-1.-2" % p)
    assert out.certified
    assert verify_certificate(out.certificate)


def test_via_chain_reaches_unknot():
    # a pretzel with a single negative crossing untangles completely;
    # the witness is a bare leaf at the end of a move chain
    out = run("2,3,-1")
    assert out.certified
    cert = out.certificate
    assert cert.children == () and cert.det == 1
    assert len(cert.via) >= 1
    assert D.from_code(cert.via[-1]).n == 0
    assert verify_certificate(cert)
    assert jones(D.build("2,3,-1")) == LaurentPoly({0: 1})


def test_one_strand_negative_pretzels_are_rational():
    assert jones(D.build("3,3,-1")) == jones(D.build("3"))
    assert jones(D.build("3,4,-1")) == jones(D.build("2 2"))
    assert jones(D.build("4,4,-1")) == jones(D.build("2 1 2")).reverse()


def test_via_hops_preserve_jones():
    out = run("6*2.3 1.-2 0.-1.-2")
    for node in walk(out.certificate):
        j = jones(D.from_code(node.diagram_code))
        for hop in node.via:
            assert jones(D.from_code(hop)) == j


# --- canonical representatives ----------------------------------------

# multi-piece diagrams and free loops come with the closures
REPRESENTED = ([D.build(s) for s in SYMBOLS + BATTERY]
               + mixed_closures(5, 120))


def test_represented_corpus_has_pieces_and_loops():
    assert any(len(D.graph_components(d)) > 1 for d in REPRESENTED)
    assert any(d.loops and d.n for d in REPRESENTED)


def test_representative_is_the_decoded_code():
    for d in REPRESENTED:
        for e in [d] + [m for m, _ in D.r3_moves(d)]:
            labels = {}
            code = D.canonical_code(e, labels)
            rep, decoded = D.relabel(e, labels), D.from_code(code)
            assert rep == decoded


def reduction_kind(d):
    """What copying_reduce_once removes from d, or None: "kink", or a
    bigon, "bigon at last" when one of its crossings is the last,
    "neighbouring bigon" when they are numbered one apart, else
    "bigon"."""
    if arithmetic_find_kink(d):
        return "kink"
    bigon = arithmetic_find_bigon(d)
    if bigon is None:
        return None
    (a, b), _ = bigon
    c, e = sorted((a // 4, b // 4))
    if e == d.n - 1:
        return "bigon at last"
    return "neighbouring bigon" if e == c + 1 else "bigon"


def test_smoothing_matches_the_copying_oracle():
    # the smoothings and whole reduction runs of the represented corpus
    # and of seeded closures, which reach kinks, free loops and bigons
    # of every placement; the tables must agree entry for entry
    loops_formed, kinds = 0, collections.Counter()
    for d in REPRESENTED + mixed_closures(27, 300):
        kinds["free loops"] += d.loops > 0
        for c in range(d.n):
            for kind in "AB":
                s = D.smooth(d, c, kind)
                assert s == copying_smooth(d, c, kind)
                loops_formed += s.loops > d.loops
                kinds["smoothed " + str(reduction_kind(s))] += 1
        while d is not None:
            kinds[reduction_kind(d)] += 1
            nxt = D.reduce_once(d)
            assert nxt == copying_reduce_once(d)
            d = nxt
    assert loops_formed > 0 and kinds["free loops"] > 0
    for kind in ("kink", "bigon", "neighbouring bigon", "bigon at last"):
        assert kinds[kind] > 0 and kinds["smoothed " + kind] > 0, kinds


def test_smoothing_counts_the_loops_that_form():
    kink = D.build("1")
    assert [D.smooth(kink, 0, kind).loops for kind in "AB"] == [1, 2]
    for kind in "AB":
        assert D.smooth(kink, 0, kind) == copying_smooth(kink, 0, kind)
    # an R2 whose outer arcs close on each other leaves two loops
    unlink = D.from_braid([1, -1], 2)
    assert D.reduce_once(unlink) == D.LinkDiagram(0, [], 2)
    assert copying_reduce_once(unlink) == D.LinkDiagram(0, [], 2)


def orbit_walk(d, limit=300):
    """The search's breadth-first walk of d's orbit, each member as
    (frame, labels, back plug of the frame, code of the member it was
    reached from), where relabel(frame, labels) is the representative."""
    labels = {}
    queue = collections.deque([(d, labels, None, None)])
    seen = {D.canonical_code(d, labels)}
    for _ in range(limit):
        if not queue:
            return
        src, labels, back, prev = queue.popleft()
        yield src, labels, back, prev
        m = D.relabel(src, labels)
        code = D.canonical_code(m)
        for nc, s, lab, nback in qa._hops(m, D.canonical_code, src, labels,
                                          back):
            if nc not in seen:
                seen.add(nc)
                queue.append((s, lab, nback, code))


def test_skipped_slide_returns_to_the_previous_member():
    family = ["6*2.%d 1.-2 0.-1.-2" % p for p in (2, 3, 4)]
    skipped = 0
    for sym in NEGATIVE_DIAGRAMS + family:
        root = D.simplify(D.build(sym))
        starts = [root] + [D.simplify(D.smooth(root, c, kind))
                           for c in range(root.n) for kind in "AB"]
        for start in starts:
            for src, labels, back, prev in orbit_walk(start):
                m = D.relabel(src, labels)
                every = D.r3_moves(src, None, labels)
                kept = D.r3_moves(src, back, labels)
                # the frame's slides are the representative's, in order
                assert ([D.relabel(x, labels) for x, _ in every]
                        == [x for x, _ in D.r3_moves(m)])
                tables = {tuple(x.adj) for x, _ in kept}
                # the kept slides in order, undo plugs included
                assert [h for h in every if tuple(h[0].adj) in tables] == kept
                # a triangle is identified by a dart, so at most one
                left_out = [D.canonical_code(x) for x, _ in every
                            if tuple(x.adj) not in tables]
                assert left_out in ([], [prev])
                skipped += len(left_out)
                coded = [h[0] for h in qa._hops(m, D.canonical_code, src,
                                                labels, back)]
                every = [h[0] for h in qa._hops(m, D.canonical_code)]
                assert sorted(coded + left_out) == sorted(every)
    assert skipped > 1000


def test_each_plug_table_is_coded_once_per_search(monkeypatch):
    real, tables, codes = D.canonical_code, [], []

    def counted(d, labels=None):
        tables.append((tuple(d.adj), d.loops))
        codes.append(real(d, labels))
        return codes[-1]

    monkeypatch.setattr(qa, "canonical_code", counted)
    certified = 0
    for sym in NEGATIVE_DIAGRAMS + ["6*2.%d 1.-2 0.-1.-2" % p for p in (2, 3)]:
        tables.clear()
        out = run(sym, node_budget=150)
        assert out.status != "budget-exceeded" and tables, sym
        assert len(set(tables)) == len(tables), sym
        if out.certified:
            # the audit codes every child and every hop itself, with
            # no memo of the search's
            codes.clear()
            assert verify_certificate(out.certificate)
            nodes = list(walk(out.certificate))
            want = {ch.diagram_code for node in nodes for ch in node.children}
            want.update(hop for node in nodes for hop in node.via)
            assert want and want <= set(codes)
            certified += 1
    assert certified == 2


def test_searched_tables_get_the_brute_force_code(monkeypatch):
    # every plug table the searches code, with the crossing map the
    # search relabels by; the corpus has starts that lose on row 0's
    # first read, starts that lose later in row 0, and ties that last
    # past row 0
    real, coded = D.canonical_code, {}

    def spy(d, labels=None):
        code = real(d, labels)
        coded[tuple(d.adj), d.loops] = d, code, labels
        return code

    monkeypatch.setattr(qa, "canonical_code", spy)
    for sym in NEGATIVE_DIAGRAMS + ["6*2.%d 1.-2 0.-1.-2" % p for p in (2, 3)]:
        run(sym)
    assert len(coded) > 1000
    first_read = later = tied = 0
    for d, code, labels in coded.values():
        assert code == brute_canonical_code(d)
        assert D.relabel(d, labels) == D.from_code(code)
        if d.n and len(D.graph_components(d)) == 1:
            codes = [code_from(d, c, side) for c in range(d.n)
                     for side in (0, 2)]
            best = min(codes)
            first_read += sum(c[0][0] > best[0][0] for c in codes)
            later += sum(c[0][0] == best[0][0] and c[0] > best[0]
                         for c in codes)
            tied += sum(c[:2] == best[:2] for c in codes) > 1
    assert first_read > 1000 and later > 100 and tied > 100


# canonical_code calls of one search under the default config, one per
# plug table the search meets; fewer hits in the search's memo move
# them.  Slides and smoothings built on the representatives instead of
# the frames read 86, 114, 270, 168, 271, 270, 218 and 287 (the first
# eight), and renumbering a smoothing or reduction by moving the last
# crossing into the dropped slot reads 71, 62, 188, 170, 302, 228, 228,
# 285 and 423, with every node count unchanged.
CODE_PINS = {
    "3,3,-3": 62,
    "4,3,-3": 55,
    "5,3,-3": 176,
    "-2 1 2,3,3": 123,
    "-2 2,2 2,3": 215,
    "(3,-2 1) (2 1,2)": 219,
    "6*2.2 1.-2 0.-1.-2": 181,
    "6*2.3 1.-2 0.-1.-2": 191,
    "6*2.4 1.-2 0.-1.-2": 251,
}


def test_codes_per_search_are_pinned(monkeypatch):
    assert CODE_PINS.keys() == SEARCH_PINS.keys()
    real, calls = D.canonical_code, []
    monkeypatch.setattr(qa, "canonical_code",
                        lambda d, labels=None: calls.append(1)
                        or real(d, labels))
    got = {}
    for sym in CODE_PINS:
        calls.clear()
        qa_search(D.build(sym))
        got[sym] = len(calls)
    assert got == CODE_PINS


# --- verification rejects tampering -----------------------------------


def fresh_cert(sym="3 2"):
    out = run(sym)
    assert out.certified
    return out.certificate


def test_verify_rejects_wrong_det():
    cert = fresh_cert()
    bad = QACertificate(cert.diagram_code, cert.det + 1, cert.chosen_crossing,
                        cert.det_triple, cert.children)
    assert not verify_certificate(bad)


def test_verify_rejects_garbage_code():
    cert = fresh_cert()
    bad = QACertificate("0.0 1.1|x", cert.det, cert.chosen_crossing,
                        cert.det_triple, cert.children)
    assert not verify_certificate(bad)


def test_verify_rejects_swapped_children():
    cert = fresh_cert()
    c0, c1 = cert.children
    if c0.det == c1.det:  # swap must actually change something
        pytest.skip("symmetric split")
    bad = QACertificate(cert.diagram_code, cert.det, cert.chosen_crossing,
                        (cert.det, c1.det, c0.det), (c1, c0))
    assert not verify_certificate(bad)


def test_verify_rejects_foreign_child_code():
    cert = fresh_cert()
    c0, c1 = cert.children
    foreign = QACertificate(D.canonical_code(D.build("2")), c0.det,
                            c0.chosen_crossing, c0.det_triple, c0.children)
    bad = QACertificate(cert.diagram_code, cert.det, cert.chosen_crossing,
                        cert.det_triple, (foreign, c1))
    assert not verify_certificate(bad)


def test_verify_rejects_one_or_three_children():
    # JSON of any length reads back; the audit answers False, it does
    # not fail to unpack
    data = certificate_to_dict(fresh_cert())
    c0, c1 = data["children"]
    for children in ([c0], [c0, c1, c1]):
        bad = certificate_from_dict(dict(data, children=children))
        assert len(bad.children) == len(children)
        assert not verify_certificate(bad)


def test_verify_rejects_illegal_via_hop():
    cert = run("2,3,-1").certificate
    # replace the last hop with an unrelated diagram of the same size
    fake = cert.via[:-1] + (D.canonical_code(D.build("2")),)
    bad = QACertificate(cert.diagram_code, cert.det, via=fake)
    assert not verify_certificate(bad)
    # dropping the chain strands the leaf check on a crossing diagram
    bald = QACertificate(cert.diagram_code, cert.det)
    assert not verify_certificate(bald)


def test_verify_rejects_unreduced_child_code():
    # the search files every child under its reduced smoothing's code;
    # the unreduced code, hopping to the unknot by a reduction, is not
    # that form
    cert = fresh_cert("3")
    d = D.from_code(cert.diagram_code)
    c0, c1 = cert.children
    assert c1.det == 1 and c1.diagram_code == "|1"
    raw = [s for s in (D.smooth(d, cert.chosen_crossing, k) for k in "AB")
           if D.canonical_code(D.simplify(s)) == c1.diagram_code][0]
    loose = QACertificate(D.canonical_code(raw), 1, via=(c1.diagram_code,))
    assert loose.diagram_code != c1.diagram_code
    assert verify_certificate(loose)
    bad = QACertificate(cert.diagram_code, cert.det, cert.chosen_crossing,
                        cert.det_triple, (c0, loose))
    assert not verify_certificate(bad)


def test_accelerated_flag_cannot_be_forged():
    # a reduced diagram with crossings is not a leaf, whatever its JSON
    # says, alternating or not
    for sym in ("2 2 2 2", "3,3,-3"):
        d = D.simplify(D.build(sym))
        data = {"diagram": D.canonical_code(d), "det": determinant(d),
                "accelerated": True}
        assert not verify_certificate(certificate_from_dict(data))


def test_verify_rejects_non_planar_code():
    # the trefoil with two arcs swapped: connected, 3 crossings, but
    # only 3 faces, so it needs a handle
    code = "1.0 1.1 2.1 2.0,0.0 0.1 2.3 2.2,0.3 0.2 1.3 1.2|0"
    assert not verify_certificate(QACertificate(code, 3))


@pytest.mark.parametrize("field, value", [("diagram", 5), ("diagram", None),
                                          ("crossing", "0"), ("crossing", 0.0),
                                          ("crossing", True),
                                          ("det", True), ("det", 3.0)])
def test_verify_rejects_wrong_typed_fields(field, value):
    # JSON can carry any type in any field; the audit answers False
    data = json.loads(json.dumps(certificate_to_dict(fresh_cert())))
    data[field] = value
    assert not verify_certificate(certificate_from_dict(data))


def test_verify_rejects_determinants_of_equal_value_and_wrong_type():
    # True == 1 and 3.0 == 3, so only a type check tells these apart
    assert verify_certificate(certificate_from_dict({"diagram": "|1", "det": 1}))
    assert not verify_certificate(
        certificate_from_dict({"diagram": "|1", "det": True}))

    def floats(node):
        out = dict(node, det=float(node["det"]))
        if "children" in node:
            out["det_triple"] = [float(x) for x in node["det_triple"]]
            out["children"] = [floats(ch) for ch in node["children"]]
        return out

    data = certificate_to_dict(fresh_cert("3"))
    assert data["det"] == 3 and verify_certificate(certificate_from_dict(data))
    assert not verify_certificate(certificate_from_dict(floats(data)))
    for key in ("det", "det_triple"):
        assert not verify_certificate(certificate_from_dict(
            dict(data, **{key: floats(data)[key]})))


# --- serialization ----------------------------------------------------


@pytest.mark.parametrize("field, value", [("diagram", None),
                                          ("children", "ab"),
                                          ("det_triple", 3)])
def test_from_dict_rejects_malformed_json(field, value):
    # None deletes the key; a wrong shape is a ValueError, not whatever
    # the first failing operation raises
    data = certificate_to_dict(fresh_cert())
    if value is None:
        del data[field]
    else:
        data[field] = value
    with pytest.raises(ValueError):
        certificate_from_dict(data)


@pytest.mark.parametrize("sym", ["2", "3 2", "2,3,-1", "6*2.2 1.-2 0.-1.-2"])
def test_certificate_json_round_trip(sym):
    cert = run(sym).certificate
    blob = json.dumps(certificate_to_dict(cert))
    again = certificate_from_dict(json.loads(blob))
    assert again == cert
    assert verify_certificate(again)


def test_shared_subtrees_are_audited_once(monkeypatch):
    cert = run("6*2.3 1.-2 0.-1.-2").certificate
    nodes = list(walk(cert))
    distinct = list({id(node): node for node in nodes}.values())
    assert len(distinct) < len(nodes)
    calls, real = [], qa.determinant
    monkeypatch.setattr(qa, "determinant",
                        lambda d: calls.append(1) or real(d))
    # the audit reads one determinant per node, two after a via chain
    assert verify_certificate(cert)
    assert len(calls) == sum(1 + bool(node.via) for node in distinct)
    # a tree read back from JSON shares nothing, so every node counts
    calls.clear()
    assert verify_certificate(certificate_from_dict(certificate_to_dict(cert)))
    assert len(calls) == sum(1 + bool(node.via) for node in nodes)


def test_corrupted_shared_node_fails():
    cert = run("6*2.3 1.-2 0.-1.-2").certificate
    counts = collections.Counter(id(node) for node in walk(cert))
    shared = next(node for node in walk(cert)
                  if node.children and counts[id(node)] > 1)
    # swapped children: only the node's own audit can tell
    bad = replace(shared, children=shared.children[::-1])

    def tampered(hits):
        met = iter(range(counts[id(shared)]))

        def swap(node):
            if node is shared and next(met) in hits:
                return bad
            return replace(node, children=tuple(map(swap, node.children)))
        return swap(cert)

    # every occurrence, then the last alone, after copies that pass
    for hits in (range(counts[id(shared)]), {counts[id(shared)] - 1}):
        assert not verify_certificate(tampered(hits))
    assert verify_certificate(tampered(()))


def test_audit_does_not_use_the_search_elimination(monkeypatch):
    # the audit recomputes every determinant as a minor (determinant),
    # never by the adjugate sweep the search reads its nodes off
    certs = [run(sym).certificate for sym in sorted(SEARCH_PINS)
             if SEARCH_PINS[sym][0] == "certified"]
    assert len(certs) == 3

    def refuse(*args):
        raise AssertionError("the audit used the search's elimination")

    for module in (qa, invariants):
        monkeypatch.setattr(module, "smoothing_determinants", refuse)
    monkeypatch.setattr(invariants, "_det_adj", refuse)
    for cert in certs:
        assert verify_certificate(cert)


# spellings of the trefoil's numbers other than the runs of 0-9 that
# codes are written in, most of which int() reads as the same values:
# "0.1" opening its second row, then its loop count
TREFOIL = "1.1 1.0 2.1 2.0,0.1 0.0 2.3 2.2,0.3 0.2 1.3 1.2|0"
SPELLINGS = ([TREFOIL.replace(",0.1 ", "," + pq + " ")
              for pq in ("+0.1", "0.+1", "-0.1", "0.0_1", "0. 1", "0.1 ",
                         "0.\t1", "\u0660.1", "0.\u0661", "0.\uff11")]
             + [TREFOIL[:-1] + n
                for n in ("+0", "-0", " 0", "0 ", "0_0", "\u0660", "")])


@pytest.mark.parametrize("code", SPELLINGS)
def test_codes_spell_numbers_in_ascii_digits_only(code):
    cert = run("3").certificate
    assert cert.diagram_code == TREFOIL and verify_certificate(cert)
    with pytest.raises(ValueError):
        D.from_code(code)
    assert not verify_certificate(replace(cert, diagram_code=code))


def test_certificate_text_is_pinned():
    # stored certificates are this exact JSON text
    blob = json.dumps(certificate_to_dict(run("6*2.2 1.-2 0.-1.-2").certificate))
    assert len(blob) == 6422
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "9bccf3ff7fbdc352865d3350aaa05d1db531a4d2620a38f40edcdb37a64d2982")


# --- budget -----------------------------------------------------------


def test_budget_exhaustion_is_reported():
    out = run("6*2.2 1.-2 0.-1.-2", node_budget=5)
    assert out.status == "budget-exceeded"
    assert out.certificate is None
    assert out.nodes_visited <= 5


def test_budget_must_be_positive():
    with pytest.raises(ValueError):
        run("2", node_budget=0)


# --- pretzel criterion -------------------------------------------------


def pretzel_qa(p, q):
    """montesinos_qa on P(p1, ..., pn, -q)."""
    sym = ",".join(map(str, p)) + ",-%d" % q
    return montesinos_qa(conway_to_montesinos(parse(sym)))


def test_greene_pretzel_values():
    assert pretzel_qa((2, 2), 3)
    assert pretzel_qa((3, 4, 5), 4)
    assert not pretzel_qa((3, 3), 3)
    assert pretzel_qa((2, 5), 1)  # 2-bridge, det 3
    assert not pretzel_qa((2, 2), 1)  # 2-bridge, det 0
    assert not pretzel_qa((2, 3, 4), 1)


@pytest.mark.parametrize("p", [(2, 2), (2, 3), (3, 3), (2, 4)])
@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_pretzel_sweep_matches_criterion(p, q):
    # at q = 1 the pretzel P(p1, p2, -1) is 2-bridge: certified exactly
    # when det is not 0
    sym = "%d,%d,-%d" % (p[0], p[1], q)
    out = run(sym, node_budget=30000)
    assert out.status != "budget-exceeded"
    assert out.certified == pretzel_qa(p, q), sym
