"""In-memory spans around the package's layer calls.

The tracer rebinds module attributes to timing wrappers while it is
installed and puts the originals back when it is removed.  It wraps
every call the benchmark's rows make, and the module-level names
through which ``qa``, ``homology`` and ``classify`` call other layers
(``qalinks.qa.canonical_code``, ``qalinks.qa.determinant`` and so on).
Private helpers are not wrapped; their time stays in the caller's self
time.

A span records its name, start, end, parent span and row id.  Spans
are appended when they open, so a parent always precedes its children.

Which end-to-end metric each layer should move, and where:

* diagram.canonical_code, from_code, r3_moves, smooth, simplify,
  reduce_once and crossing_signs: rows_per_s and row_p90_ms on
  qa-orbits; on homology-table they should not move.
* diagram.build, conway.parse, classify.*: row_p50_ms on table-rows.
* invariants.determinant: rows_per_s on qa-orbits;
  invariants.signature: table-rows only.
* invariants.jones (the bracket state sum): rows_per_s and row_p90_ms
  on homology-table.
* homology.khovanov_f2 and its refusals: rows_per_s, row_p90_ms and
  peak_rss_mb on homology-table, row_p90_ms and fail_frac on
  table-rows; homology.thinness should stay negligible.
* qa.qa_search self time and the qa.* node ratios: qa-orbits;
  qa.verify_certificate: rows_per_s on qa-orbits and table-rows.
"""

import gzip
from array import array
from time import perf_counter_ns

ROW = "row"

# (module, attribute, span name).  The span name is the function's home
# module and name, so a call through qa's import of simplify and a call
# from a row both count as diagram.simplify.
LAYER_CALLS = (
    ("qalinks.conway", "parse", "conway.parse"),
    ("qalinks.diagram", "build", "diagram.build"),
    ("qalinks.diagram", "from_braid", "diagram.from_braid"),
    ("qalinks.diagram", "simplify", "diagram.simplify"),
    ("qalinks.diagram", "is_alternating", "diagram.is_alternating"),
    ("qalinks.invariants", "determinant", "invariants.determinant"),
    ("qalinks.invariants", "signature", "invariants.signature"),
    ("qalinks.invariants", "jones", "invariants.jones"),
    ("qalinks.homology", "khovanov_f2", "homology.khovanov_f2"),
    ("qalinks.homology", "thinness", "homology.thinness"),
    ("qalinks.classify", "adequacy", "classify.adequacy"),
    ("qalinks.classify", "jp_special", "classify.jp_special"),
    ("qalinks.classify", "thickness_evidence", "classify.thickness_evidence"),
    ("qalinks.qa", "qa_search", "qa.qa_search"),
    ("qalinks.qa", "verify_certificate", "qa.verify_certificate"),
    # names through which one layer calls another
    ("qalinks.qa", "canonical_code", "diagram.canonical_code"),
    ("qalinks.qa", "from_code", "diagram.from_code"),
    ("qalinks.qa", "r3_moves", "diagram.r3_moves"),
    ("qalinks.qa", "smooth", "diagram.smooth"),
    ("qalinks.qa", "simplify", "diagram.simplify"),
    ("qalinks.qa", "reduce_once", "diagram.reduce_once"),
    ("qalinks.qa", "crossing_signs", "diagram.crossing_signs"),
    ("qalinks.qa", "determinant", "invariants.determinant"),
    ("qalinks.homology", "crossing_signs", "diagram.crossing_signs"),
    ("qalinks.classify", "thinness", "homology.thinness"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in LAYER_CALLS))


class Tracer:
    def __init__(self, modules):
        """modules maps a module name of LAYER_CALLS to its module object."""
        self.modules = modules
        self.names = [ROW] + list(SPAN_NAMES)
        self._id = {n: i for i, n in enumerate(self.names)}
        self.saved = []
        self.clear()

    def clear(self):
        self.name = array("q")
        self.parent = array("q")
        self.row = array("q")
        self.start = array("q")
        self.end = array("q")
        self.errors = {}  # span index -> exception class name
        self.stack = [-1]
        self.row_id = -1

    def _open(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.row.append(self.row_id)
        self.start.append(0)
        self.end.append(0)
        self.stack.append(idx)
        return idx

    def _wrap(self, fn, span_name):
        nid = self._id[span_name]
        open_, stack, start, end = self._open, self.stack, self.start, self.end
        errors = self.errors

        def traced(*args, **kwargs):
            idx = open_(nid)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                errors[idx] = type(exc).__name__
                raise
            finally:
                end[idx] = perf_counter_ns()
                start[idx] = t0
                stack.pop()
        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every LAYER_CALLS attribute to a wrapper."""
        self.clear()
        for mod_name, attr, span_name in LAYER_CALLS:
            mod = self.modules[mod_name]
            orig = getattr(mod, attr)
            self.saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, span_name))

    def remove(self):
        """Put every rebound attribute back."""
        while self.saved:
            mod, attr, orig = self.saved.pop()
            setattr(mod, attr, orig)

    def run_row(self, row_id, fn, *args):
        """Call fn under a row span and return its result."""
        self.row_id = row_id
        idx = self._open(0)
        t0 = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.end[idx] = perf_counter_ns()
            self.start[idx] = t0
            self.stack.pop()
            self.row_id = -1

    def summary(self, factors):
        """Per span name: calls, self and total time in ns, and raised
        exceptions.  A span's times are scaled by factors[row id].

        Also counts, per name, the calls made under each top-level layer
        call of a row (the span directly below the row span).
        """
        n = len(self.name)
        child = [0] * n
        top = [0] * n
        name, parent, start, end = self.name, self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
                top[i] = i if name[p] == 0 else top[p]
            else:
                top[i] = i
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        total_ns = [0] * len(self.names)
        under = {}
        for i in range(n):
            k = name[i]
            f = factors[self.row[i]]
            calls[k] += 1
            dur = end[i] - start[i]
            total_ns[k] += dur * f
            self_ns[k] += (dur - child[i]) * f
            key = (self.names[name[top[i]]], self.names[k])
            under[key] = under.get(key, 0) + 1
        raised = {}
        for i, exc in self.errors.items():
            key = (self.names[name[i]], exc)
            raised[key] = raised.get(key, 0) + 1
        return {
            "calls": dict(zip(self.names, calls)),
            "self_ns": dict(zip(self.names, self_ns)),
            "total_ns": dict(zip(self.names, total_ns)),
            "under": under,
            "raised": raised,
        }

    def write(self, path):
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span\tname\tstart_ns\tend_ns\tparent\trow\n")
            for i in range(len(self.name)):
                f.write("%d\t%s\t%d\t%d\t%d\t%d\n" % (
                    i, self.names[self.name[i]], self.start[i], self.end[i],
                    self.parent[i], self.row[i]))
