"""Classifiers on diagrams, Jones polynomials and Montesinos links.

The module holds:

* adequacy of a diagram, read off the all-A and all-B state circles
  of diagram.state_circles;
* the "special" pattern of a Jones polynomial (non-alternating signs
  or gaps in the exponent range);
* quasi-alternating Montesinos links, by the classification of
  Champanerkar-Kofman (sufficient, arXiv:0712.2265) and Issa
  (necessary, Proc. AMS 2018).  Reduce M(e; (a_1, b_1), ..., (a_p, b_p))
  with conway.montesinos_canonical to 0 < b_i < a_i, and set
  t_i = a_i/b_i, u_i = a_i/(a_i - b_i) and eps = -e.  With p <= 2 the
  link is 2-bridge and QA iff det != 0.  Otherwise it is QA iff
  eps >= 0, or eps <= -p, or eps = -1 and u_i > min_{j != i} t_j for
  some i, or eps = -(p - 1) and t_i > min_{j != i} u_j for some i.
  On a pretzel P(p_1, ..., p_n, -q) with every p_i >= 2 and q >= 2
  this is Greene's q > min p_i;
* thickness evidence: the strongest reason at hand to call a link
  thick or thin, a structural theorem on adequate non-alternating
  diagrams before a computed F2 width.

The first two are diagram- or polynomial-level, the third reads a
Montesinos symbol, and the fourth combines the first with a homology
table: none enumerates alternative diagrams of the same link, and
none searches.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .conway import MontesinosSpec, montesinos_canonical, montesinos_det
from .diagram import LinkDiagram, circle_labels
from .homology import thinness
from .invariants import LaurentPoly


class ZeroPolynomial(ValueError):
    """The zero polynomial has no sign pattern to classify."""


# --- adequacy ---------------------------------------------------------

@dataclass(frozen=True)
class AdequacyReport:
    plus_adequate: bool
    minus_adequate: bool

    @property
    def label(self) -> str:
        if self.plus_adequate and self.minus_adequate:
            return "adequate"
        if self.plus_adequate or self.minus_adequate:
            return "semi-adequate"
        return "inadequate"


def adequacy(d: LinkDiagram) -> AdequacyReport:
    """Self-touch test on the extreme states.

    A state is adequate when no crossing has both of its smoothed
    strands on the same state circle.  The circles come from
    diagram.state_circles of the all-A state 0 and the all-B state
    (1 << n) - 1.  The A-smoothing joins plugs (0,1) and (2,3) of a
    crossing, so its two strands meet the circles of plugs 4c and
    4c+2; the B-smoothing joins (0,3) and (1,2), putting the strands
    on the circles of 4c and 4c+1.
    """
    label_a = circle_labels(d, 0)
    label_b = circle_labels(d, (1 << d.n) - 1)
    plus = all(label_a[4 * c] != label_a[4 * c + 2] for c in range(d.n))
    minus = all(label_b[4 * c] != label_b[4 * c + 1] for c in range(d.n))
    return AdequacyReport(plus, minus)


# --- Jones sign/gap pattern ------------------------------------------

@dataclass(frozen=True)
class JpReport:
    alternating_signs: bool
    has_gaps: bool

    @property
    def jp_special(self) -> bool:
        return not self.alternating_signs or self.has_gaps


def jp_special(j: LaurentPoly) -> JpReport:
    """Sign and gap pattern of the coefficient sequence.

    Exponents are re-indexed over their arithmetic progression; the
    step is the gcd of the differences, which equals the minimal
    difference whenever the occupied exponents actually sit on that
    progression (they always do for the polynomials produced here).
    The polynomial is alternating when the coefficient sign depends
    only on the index parity, and gap-free when every index between
    the extremes is occupied.
    """
    exps = sorted(j.exponents())
    if not exps:
        raise ZeroPolynomial("zero polynomial")
    if len(exps) == 1:
        return JpReport(alternating_signs=True, has_gaps=False)
    step = 0
    for a, b in zip(exps, exps[1:]):
        step = math.gcd(step, b - a)
    idx = [(e - exps[0]) // step for e in exps]
    signs = {i: j.coeff(e) > 0 for i, e in zip(idx, exps)}
    base = signs[0]
    alternating = all(s == (base if i % 2 == 0 else not base)
                      for i, s in signs.items())
    gaps = idx[-1] + 1 > len(idx)
    return JpReport(alternating_signs=alternating, has_gaps=gaps)


# --- quasi-alternating Montesinos links ------------------------------

def montesinos_qa(spec: MontesinosSpec) -> bool:
    """True iff the Montesinos link is quasi-alternating.

    The closed form of the module docstring, on the canonical branches.
    An integer branch raises NotMontesinosFormError.
    """
    canon = montesinos_canonical(spec)
    p = len(canon.branches)
    if p <= 2:
        return montesinos_det(canon) != 0
    eps = -canon.e
    if eps >= 0 or eps <= -p:
        return True
    t = [Fraction(a, b) for a, b in canon.branches]
    u = [Fraction(a, a - b) for a, b in canon.branches]
    if eps == -1:
        return any(u[i] > min(t[:i] + t[i + 1:]) for i in range(p))
    if eps == -(p - 1):
        return any(t[i] > min(u[:i] + u[i + 1:]) for i in range(p))
    return False


# --- thickness evidence ------------------------------------------------

@dataclass(frozen=True)
class ThicknessEvidence:
    """Best available reason to call a link thick or thin.

    kind is one of "adequate-non-alternating", "computed-width",
    "unknown".  The first quotes a structural theorem about the reduced
    odd theory; width is the mod-2 width, a coarser measure, attached
    whenever a homology table was given.  The two can disagree
    legitimately (adequate non-alternating knots with mod-2 width 2
    exist), so kind never overrides width.
    """
    kind: str
    width: int = None

    @property
    def thick(self):
        if self.kind == "adequate-non-alternating":
            return True
        if self.kind == "computed-width":
            return self.width >= 3
        return None


def thickness_evidence(d, report: AdequacyReport, alternating: bool,
                       ranks=None) -> ThicknessEvidence:
    """Pick the strongest thickness witness available.

    Structural evidence outranks a computed width.
    """
    width = thinness(ranks, 0).width if ranks else None
    if report.label == "adequate" and not alternating:
        return ThicknessEvidence("adequate-non-alternating", width)
    if width is not None:
        return ThicknessEvidence("computed-width", width)
    return ThicknessEvidence("unknown")
