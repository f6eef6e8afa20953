"""Inputs of the qalinks benchmark.

Every input is one row of the paper's tables: a Conway symbol, or a
braid word whose closure the row builds.  Each workload has a fixed
core, copied here from the test suite, and a part drawn from the run's
seed.  The same seed always gives the same inputs.  Nothing in this
module calls the package: the draws depend only on the seed, so the
corpus cannot change when the program does.

Provenance of the copied lists (copied, not imported, so that editing
a test cannot change the benchmark):

* NEGATIVE_DIAGRAMS: ``tests/test_qa.py::NEGATIVE_DIAGRAMS``.
* FAMILY: ``tests/test_qa.py::test_polyhedral_family_certifies``,
  p = 2, 3, 4.  The p = 4 member has 13 crossings, one above
  ``homology.CROSSING_CAP``, and its search needs more than NODE_BUDGET
  nodes.
* PRETZEL_SWEEP: ``tests/test_qa.py::test_pretzel_sweep_matches_criterion``.
* BATTERY: ``tests/test_homology.py::BATTERY``.
"""

import random
from dataclasses import dataclass

NEGATIVE_DIAGRAMS = ("3,3,-3", "4,3,-3", "5,3,-3", "-2 1 2,3,3",
                     "-2 2,2 2,3", "(3,-2 1) (2 1,2)")

FAMILY = tuple("6*2.%d 1.-2 0.-1.-2" % p for p in (2, 3, 4))

PRETZEL_SWEEP = tuple(((a, b), q) for a, b in ((2, 2), (2, 3), (3, 3), (2, 4))
                      for q in (2, 3, 4))

BATTERY = ("1", "2", "3", "2 2", "4", "2 1 1", "5", "2 1 1 1 1",
           "3,3,-3", "3,3,2-", "2 2,2 1,-2", "(2,2+) -(2 1,2)",
           "-2 2,2 2,3", ".2.-3 0.2", "2 1 1:-2 1 0:2 0",
           "8*-2 0.-2 0.-2 0")

# qa_search runs with this node budget in every workload that searches.
# It is above every NEGATIVE_DIAGRAMS orbit (at most 124 nodes), so their
# negative answers are complete, and above every seeded input (at most
# 68 nodes over seeds 1 to 30).  The 13-crossing family member needs 156
# nodes, so qa-orbits refuses it, as CROSSING_CAP refuses it in the other
# workloads: every workload keeps one input above a cap.
NODE_BUDGET = 150

# The braid closures behind invariance_violations are drawn from this
# stored seed, not from the run's seed, so that the count compares
# across runs and workloads: 3 or 4 strands, words of 6 to 12 letters.
INVARIANCE_SEED = 7
INVARIANCE_BRAIDS = 76


@dataclass(frozen=True)
class Row:
    """One input: a Conway symbol, or a braid word on `strands` strands.

    expect is the known QA status ("certified" or "no-certificate"),
    or None where the benchmark knows no answer.
    """
    kind: str
    symbol: str = None
    word: tuple = None
    strands: int = 0
    expect: str = None

    @property
    def label(self):
        if self.word is not None:
            return "b%d:%s" % (self.strands, " ".join(map(str, self.word)))
        return self.symbol


def pretzel(positive, q):
    """P(positive..., -q) with the Greene closed form as its answer.

    The form (quasi-alternating iff q > min(positive), for q >= 2) is
    restated here so that the check does not take its answer from the
    code it checks.
    """
    text = ",".join(map(str, positive)) + ",-%d" % q
    expect = "certified" if q > min(positive) else "no-certificate"
    return Row("pretzel", text, expect=expect)


def random_pretzel(rng, crossings):
    """Two or three positive strands of 2 to 6 crossings, and q >= 2."""
    while True:
        positive = sorted(rng.randint(2, 6) for _ in range(rng.choice((2, 3))))
        q = crossings - sum(positive)
        if q >= 2:
            return pretzel(tuple(positive), q)


def _rational_terms(rng, crossings):
    """Positive continued-fraction terms summing to crossings, last >= 2."""
    while True:
        terms = []
        left = crossings
        while left:
            terms.append(rng.randint(1, min(left, 4)))
            left -= terms[-1]
        if terms[-1] >= 2:
            return terms


def random_rational(rng, crossings):
    return Row("rational", " ".join(map(str, _rational_terms(rng, crossings))))


def random_montesinos(rng, crossings):
    """Three rational parts of 2 to 5 crossings, the last one mirrored."""
    while True:
        sizes = [rng.randint(2, 5) for _ in range(3)]
        if sum(sizes) == crossings:
            break
    parts = [" ".join(map(str, _rational_terms(rng, k))) for k in sizes]
    return Row("montesinos", "%s,%s,-%s" % tuple(parts))


def _linking_connected(word, strands):
    """True when the components of the closure are linked into one graph.

    Components come from the braid permutation; two components are
    joined when their linking number is not zero.  A knot always
    passes.  Passing implies the closure is not split, so every
    invariant of its row is defined.
    """
    perm = list(range(strands))  # perm[position] = starting strand
    crossing_at = []
    for g in word:
        i = abs(g) - 1
        crossing_at.append((perm[i], perm[i + 1], 1 if g > 0 else -1))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    comp = {}
    for start in range(strands):
        if start in comp:
            continue
        s = start
        while s not in comp:
            comp[s] = start
            s = perm.index(s)
    roots = set(comp.values())
    if len(roots) == 1:
        return True
    lk = {}
    for a, b, sign in crossing_at:
        ca, cb = comp[a], comp[b]
        if ca != cb:
            key = (min(ca, cb), max(ca, cb))
            lk[key] = lk.get(key, 0) + sign
    reach = {min(roots)}
    grew = True
    while grew:
        grew = False
        for (ca, cb), v in lk.items():
            if v and (ca in reach) != (cb in reach):
                reach.update((ca, cb))
                grew = True
    return reach == roots


def random_braid(rng, length):
    """Uniform word on 3 or 4 strands whose closure is linking-connected."""
    while True:
        s = rng.choice((3, 4))
        word = tuple(rng.choice((1, -1)) * rng.randint(1, s - 1)
                     for _ in range(length))
        if _linking_connected(word, s):
            return Row("braid", word=word, strands=s)


def homogeneous_braid(rng, length, strands):
    """Word in which each generator keeps one sign and appears twice or more.

    Such a closure is not split, and it has no kink and no
    Reidemeister 2 bigon, so its row works on all `length` crossings:
    the cost of a row follows from its stratum, not from the draw.
    Signs are drawn per generator, so the draw mixes alternating and
    positive (non-alternating) closures, knots and links.
    """
    signs = [rng.choice((1, -1)) for _ in range(strands - 1)]
    while True:
        word = [rng.randint(1, strands - 1) for _ in range(length)]
        if all(word.count(g) >= 2 for g in range(1, strands)):
            return Row("braid", word=tuple(signs[g - 1] * g for g in word),
                       strands=strands)


def invariance_braids():
    """The fixed braid closures that invariance_violations counts over."""
    rng = random.Random(INVARIANCE_SEED)
    return [random_braid(rng, rng.randint(6, 12))
            for _ in range(INVARIANCE_BRAIDS)]


def qa_orbits(seed):
    """Slide-orbit searches: negatives, the family, pretzels and a top-up.

    The top-up holds, for each crossing number from 6 to 8, six seeded
    pretzels and six seeded Montesinos symbols: many light rows, so that
    the fixed heavy searches set the upper percentiles and the totals.
    """
    rng = random.Random(seed)
    rows = [Row("negative", s, expect="no-certificate")
            for s in NEGATIVE_DIAGRAMS]
    rows += [Row("family", s, expect="certified") for s in FAMILY]
    rows += [pretzel(p, q) for p, q in PRETZEL_SWEEP]
    for c in range(6, 9):
        rows += [random_pretzel(rng, c) for _ in range(6)]
        rows += [random_montesinos(rng, c) for _ in range(6)]
    return rows


def homology_table(seed):
    """BATTERY, the 13-crossing family member, and seeded braid closures.

    Homogeneous braid words on three and on four strands: per strand
    count, 6 words of 6 letters, 20 of 7, 2 of 8 and 8 of 9.  BATTERY
    holds the 11- and 12-crossing inputs, so the largest complex (and
    the peak memory) does not depend on the draw.  The median row falls
    inside the 40 seven-crossing closures and the 90th percentile inside
    the 16 nine-crossing ones, so both rest on many draws of one size.
    """
    rng = random.Random(seed)
    rows = [Row("battery", s) for s in BATTERY]
    rows.append(Row("family", FAMILY[-1]))
    for length, count in ((6, 6), (7, 20), (8, 2), (9, 8)):
        for strands in (3, 4):
            rows += [homogeneous_braid(rng, length, strands)
                     for _ in range(count)]
    return rows


# Rows of each kind per crossing number in table-rows: mostly small
# symbols.  The median row falls inside the six-crossing stratum and the
# 90th percentile inside the eight-crossing one, below the two heavy
# family members, so both rest on many draws of one size.
TABLE_STRATA = {3: 5, 4: 5, 5: 5, 6: 4, 7: 4, 8: 3}


def table_rows(seed):
    """Mostly small symbols of 3 to 8 crossings, kept as drawn.

    For each crossing number c of TABLE_STRATA, that many rational
    symbols and homogeneous braid words (on two to four strands, as
    many as leave each generator two letters), and from 6 crossings on
    as many pretzels and Montesinos symbols; then the three polyhedral
    family members.
    """
    rng = random.Random(seed)
    rows = []
    for c, count in TABLE_STRATA.items():
        strands = min(4, c // 2 + 1)
        for _ in range(count):
            rows.append(random_rational(rng, c))
            rows.append(homogeneous_braid(rng, c, rng.randint(2, strands)))
            if c >= 6:
                rows.append(random_pretzel(rng, c))
                rows.append(random_montesinos(rng, c))
    rows += [Row("family", s, expect="certified") for s in FAMILY]
    return rows


WORKLOADS = {
    "qa-orbits": qa_orbits,
    "homology-table": homology_table,
    "table-rows": table_rows,
}
