"""Certificate search, verification, and the extension operator."""

import json

import pytest

from qalinks import diagram as D
from qalinks.invariants import LaurentPoly, determinant, jones
from qalinks.diagram import ExtensionSignMismatch, ExtensionSpec, extend
from qalinks.qa import (
    QACertificate, SearchConfig, certificate_from_dict, certificate_to_dict,
    greene_pretzel_qa, qa_search, verify_certificate,
)


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


def test_split_link_never_certifies():
    # determinant zero admits no additive split into positive parts
    out = run("2,2,-1")
    assert out.status == "no-certificate"


# --- move orbit exploration -------------------------------------------


def test_polyhedral_diagram_needs_slides():
    # this 11-crossing diagram certifies, but one subtree only unlocks
    # after triangle slides; with orbits disabled the search dead-ends
    sym = "6*2.2 1.-2 0.-1.-2"
    assert run(sym, explore_moves=False).status == "no-certificate"
    out = run(sym)
    assert out.certified
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


def test_verify_rejects_illegal_via_hop():
    cert = run("2,3,-1").certificate
    # replace the last hop with an unrelated diagram of the same size
    fake = cert.via[:-1] + (D.canonical_code(D.build("2")),)
    bad = QACertificate(cert.diagram_code, cert.det, via=fake)
    assert not verify_certificate(bad)
    # dropping the chain strands the leaf check on a crossing diagram
    bald = QACertificate(cert.diagram_code, cert.det)
    assert not verify_certificate(bald)


# --- serialization ----------------------------------------------------


@pytest.mark.parametrize("sym", ["2", "3 2", "2,3,-1", "6*2.2 1.-2 0.-1.-2"])
def test_certificate_json_round_trip(sym):
    cert = run(sym).certificate
    blob = json.dumps(certificate_to_dict(cert))
    again = certificate_from_dict(json.loads(blob))
    assert again == cert
    assert verify_certificate(again)


# --- budget and accelerator -------------------------------------------


def test_budget_exhaustion_is_reported():
    out = run("6*2.2 1.-2 0.-1.-2", node_budget=5)
    assert out.status == "budget-exceeded"
    assert out.certificate is None
    assert out.nodes_visited <= 5


def test_budget_must_be_positive():
    with pytest.raises(ValueError):
        run("2", node_budget=0)


def test_accelerator_stops_at_alternating_diagrams():
    out = run("2 2 2 2", alternating_accelerator=True)
    assert out.certified
    cert = out.certificate
    assert cert.accelerated and cert.children == ()
    assert cert.det == determinant(D.build("2 2 2 2"))
    assert verify_certificate(cert)
    assert out.nodes_visited < qa_search(D.build("2 2 2 2")).nodes_visited


def test_accelerated_flag_cannot_be_forged():
    # a non-alternating diagram marked accelerated must fail the audit
    d = D.simplify(D.build("3,3,-3"))
    code = D.canonical_code(d)
    assert not verify_certificate(QACertificate(code, 9, accelerated=True))


# --- crossing extension -----------------------------------------------


def test_extend_identity_positive_and_negative():
    # both handedness cases: a single twist of the crossing's own sign
    # glues back to the identical diagram
    for sym in ("3", "-3"):
        d = D.build(sym)
        sign = D.crossing_signs(d)[0]
        out = extend(d, ExtensionSpec(0, (sign,)))
        assert D.canonical_code(out) == D.canonical_code(d)
        assert {D.crossing_signs(d)[c] for c in range(d.n)} == {sign}


def test_extend_twist_on_hopf_gives_trefoil():
    d = D.build("2")
    sign = D.crossing_signs(d)[0]
    out = extend(d, ExtensionSpec(0, (2 * sign,)))
    assert jones(out) == jones(D.build("-3" if sign < 0 else "3"))


def test_extend_rejects_sign_mismatch():
    d = D.build("2")
    sign = D.crossing_signs(d)[0]
    with pytest.raises(ExtensionSignMismatch):
        extend(d, ExtensionSpec(0, (-2 * sign,)))
    with pytest.raises(ExtensionSignMismatch):
        extend(d, ExtensionSpec(0, (sign, -sign)))


def test_extend_rejects_bad_crossing_and_entries():
    d = D.build("2")
    with pytest.raises(ValueError):
        extend(d, ExtensionSpec(7, (1,)))
    with pytest.raises(ValueError):
        ExtensionSpec(0, ())
    with pytest.raises(ValueError):
        ExtensionSpec(0, (1, 0))


@pytest.mark.parametrize("entries", [(2,), (1, 1), (2, 1), (3,), (1, 2)])
def test_extended_certified_diagrams_stay_certified(entries):
    # extending a certified crossing preserves certifiability
    d = D.simplify(D.build("3 2"))
    out = qa_search(d)
    assert out.certified
    root = D.from_code(out.certificate.diagram_code)
    c = out.certificate.chosen_crossing
    sign = D.crossing_signs(root)[c]
    spec = ExtensionSpec(c, tuple(sign * a for a in entries))
    bigger = extend(root, spec)
    grown = qa_search(bigger)
    assert grown.certified
    assert verify_certificate(grown.certificate)


def test_extension_grows_crossing_number():
    d = D.build("2")
    sign = D.crossing_signs(d)[0]
    out = extend(d, ExtensionSpec(0, (sign, sign, sign)))
    assert out.n == d.n + 2  # sum of entries minus the consumed crossing


# --- pretzel criterion -------------------------------------------------


def test_greene_pretzel_values():
    assert greene_pretzel_qa((2, 2), 3)
    assert greene_pretzel_qa((3, 4, 5), 4)
    assert not greene_pretzel_qa((3, 3), 3)
    assert not greene_pretzel_qa((2, 5), 1)


def test_greene_pretzel_validation():
    with pytest.raises(ValueError):
        greene_pretzel_qa((2,), 3)
    with pytest.raises(ValueError):
        greene_pretzel_qa((2, 1), 3)
    with pytest.raises(ValueError):
        greene_pretzel_qa((2, 2), 0)


@pytest.mark.parametrize("p", [(2, 2), (2, 3), (3, 3), (2, 4)])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_pretzel_sweep_matches_criterion(p, q):
    # the q = 1 column is excluded: there the pretzel degenerates to a
    # rational link (or the unknot) and the closed form goes stale
    sym = "%d,%d,-%d" % (p[0], p[1], q)
    out = run(sym, node_budget=30000)
    assert out.status != "budget-exceeded"
    assert out.certified == greene_pretzel_qa(p, q), sym
