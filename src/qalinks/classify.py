"""Classifiers on diagrams and Jones polynomials.

Four loosely related tests live here:

* adequacy of a diagram, read off the all-A and all-B state circles
  of diagram.state_circles;
* the "special" pattern of a Jones polynomial (non-alternating signs
  or gaps in the exponent range);
* the thickness predicate for reduced Montesinos symbols,
  min(p_1, ..., p_m) >= q on the reduced numbers;
* evaluation of the side conditions attached to link families
  ("min(q,r)>p" and friends), parsed from the table strings.

All of them are diagram- or polynomial-level: none enumerates
alternative diagrams of the same link.
"""

import ast
import math
import re
from dataclasses import dataclass

from .conway import MissingParameterError, ReducedSymbol
from .diagram import LinkDiagram, state_circles
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
    label_a = _circle_labels(d, 0)
    label_b = _circle_labels(d, (1 << d.n) - 1)
    plus = all(label_a[4 * c] != label_a[4 * c + 2] for c in range(d.n))
    minus = all(label_b[4 * c] != label_b[4 * c + 1] for c in range(d.n))
    return AdequacyReport(plus, minus)


def _circle_labels(d, state):
    """Plug -> index of its circle in the given state."""
    return {p: i for i, circle in enumerate(state_circles(d, state))
            for p in circle}


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


# --- Montesinos thickness predicate -----------------------------------

def montesinos_thick_predicate(r: ReducedSymbol) -> bool:
    """min over the reduced positive numbers >= the reduced negative one.

    Conjecturally this marks the homologically thick Montesinos links;
    on pretzels it is the complement of the q > min(p) QA criterion.
    """
    return min(r.reduced_p) >= r.reduced_q


# --- family condition strings -----------------------------------------

_ALLOWED_NODES = (
    ast.Expression, ast.Compare, ast.BoolOp, ast.And, ast.Or,
    ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.UnaryOp, ast.USub,
    ast.Call, ast.Name, ast.Constant, ast.Load,
    ast.Gt, ast.GtE, ast.Lt, ast.LtE, ast.Eq, ast.NotEq,
)


def eval_family_condition(cond: str, assignment: dict) -> bool:
    """Evaluate a family side condition like "min(q,r)>p".

    The table strings use a single "=" for equality and chain
    comparisons ("p>q>=2"); both are plain Python once "=" becomes
    "==".  Only min/max calls, integer arithmetic and comparisons are
    admitted.
    """
    src = re.sub(r"(?<![<>=!])=(?!=)", "==", cond)
    tree = ast.parse(src, mode="eval")
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ValueError("unsupported syntax in condition: %r" % cond)
        if isinstance(node, ast.Call):
            if not (isinstance(node.func, ast.Name)
                    and node.func.id in ("min", "max")):
                raise ValueError("only min/max calls allowed: %r" % cond)
        if isinstance(node, ast.Constant) and not isinstance(node.value, int):
            raise ValueError("non-integer constant in condition: %r" % cond)
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names -= {"min", "max"}
    for n in sorted(names):
        if n not in assignment:
            raise MissingParameterError(n)
    scope = {"min": min, "max": max}
    scope.update({k: int(v) for k, v in assignment.items()})
    return bool(eval(compile(tree, "<condition>", "eval"),
                     {"__builtins__": {}}, scope))


# --- thickness evidence ------------------------------------------------

@dataclass(frozen=True)
class ThicknessEvidence:
    """Best available reason to call a link thick or thin.

    kind is one of "adequate-non-alternating", "non-alternating-torus",
    "computed-width", "unknown".  The first two quote structural
    theorems about the reduced odd theory; width is the mod-2 width,
    a coarser measure, attached whenever a homology table was given.
    The two can disagree legitimately (adequate non-alternating knots
    with mod-2 width 2 exist), so kind never overrides width.
    """
    kind: str
    width: int = None

    @property
    def thick(self):
        if self.kind in ("adequate-non-alternating", "non-alternating-torus"):
            return True
        if self.kind == "computed-width":
            return self.width >= 3
        return None


def thickness_evidence(d, report: AdequacyReport, alternating: bool,
                       ranks=None, torus: bool = False) -> ThicknessEvidence:
    """Pick the strongest thickness witness available.

    Structural evidence outranks a computed width; the torus flag is
    caller knowledge (torus-ness is not decided from the diagram).
    """
    width = thinness(ranks, 0).width if ranks else None
    if report.label == "adequate" and not alternating:
        return ThicknessEvidence("adequate-non-alternating", width)
    if torus and not alternating:
        return ThicknessEvidence("non-alternating-torus", width)
    if width is not None:
        return ThicknessEvidence("computed-width", width)
    return ThicknessEvidence("unknown")
