"""The qalinks benchmark: table rows per second on three workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload qa-orbits --seed 1 --seconds 34 \
        --trace 0

A run imports the package from ``src/``, draws its workload's inputs
from the seed, and then runs whole passes over them, one row per input,
until another pass would end after ``--seconds``.  Every row's outputs
are checked.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
end-to-end metrics with ``--trace 0``, per-layer ones with
``--trace 1``.  A record of every input's outputs, the raw wall-clock
figures, and with ``--trace 1`` the spans of the last traced pass, go
to ``perfbench/out/``.

Times are wall-clock times scaled to the speed of the machine at that
moment (see speed.py): each row's time is multiplied by the factor the
reference loop gives around it, and so is each set-up.

The traced run alternates untraced and traced passes, so it measures
the tracing overhead against its own untraced passes.  Its counts come
from the first traced pass and must repeat in every later one.

Exit status: 0 when every check passed; 1 when a check failed (the
result is still printed, with ``correct`` false); 2 when the package
cannot be found next to the benchmark (nothing is printed).
"""

import argparse
import gc
import importlib
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import namedtuple
from pathlib import Path

import corpus
import rows
import spans
import speed

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
LAYER_MODULES = ("conway", "diagram", "invariants", "homology", "classify",
                 "qa")
SETUP_REPEATS = 15

# seconds: scaled time; raw: wall-clock time; err: "refused", a
# traceback, or None; bad: names of the failed checks
Result = namedtuple("Result", "seconds raw out err bad")


def import_layers():
    """Import every layer afresh (module-level tables such as BASIS_FRAMES
    are rebuilt each time) and return them by module name."""
    for name in [m for m in sys.modules if m.split(".")[0] == "qalinks"]:
        del sys.modules[name]
    importlib.import_module("qalinks")
    return {"qalinks." + m: importlib.import_module("qalinks." + m)
            for m in LAYER_MODULES}


def setup(workload, seed, track):
    """Import the package and draw and parse the corpus.

    Returns (modules, inputs, invariance inputs, scaled seconds).
    """
    gc.collect()
    track.sample()
    t0 = time.perf_counter()
    modules = import_layers()
    inputs = corpus.WORKLOADS[workload](seed)
    fixed = corpus.invariance_braids()
    parse = modules["qalinks.conway"].parse
    for row in inputs:
        if row.symbol is not None:
            parse(row.symbol)
    t1 = time.perf_counter()
    track.sample()
    return modules, inputs, fixed, (t1 - t0) * track.factor(t0, t1)


def run_pass(L, runner, inputs, track, tracer=None):
    """One pass over the inputs; returns a Result per row.

    A SizeLimitError or a budget-exceeded search is a refusal: the row
    fails, but no check does.
    """
    size_limit = L.invariants.SizeLimitError
    timed = []
    for i, row in enumerate(inputs):
        track.maybe_sample()
        out = err = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = runner(L, row)
            else:
                out = tracer.run_row(i, runner, L, row)
        except size_limit:
            err = "refused"
        except Exception:  # a row that raises is reported, not fatal
            err = traceback.format_exc(limit=3)
        timed.append((t0, time.perf_counter(), out, err))
    track.sample()
    results = []
    for row, (t0, t1, out, err) in zip(inputs, timed):
        bad = []
        if out is not None:
            if out.get("status") == "budget-exceeded":
                err = "refused"
            bad = rows.check(L, row, out)
        elif err != "refused":
            bad = ["raised"]
        results.append(Result((t1 - t0) * track.factor(t0, t1), t1 - t0,
                              out, err, bad))
    return results


def invariance_violations(L, braids):
    """Braid closures whose Jones polynomial changes under simplify."""
    found = []
    for row in braids:
        d = L.diagram.from_braid(list(row.word), row.strands)
        if L.invariants.jones(d) != L.invariants.jones(L.diagram.simplify(d)):
            found.append(row.label)
    return found


def rows_per_s(results, field="seconds"):
    done = sum(1 for r in results if r.err is None and not r.bad)
    return done / sum(getattr(r, field) for r in results)


def measure(L, runner, inputs, seconds, trace, track):
    """Run passes until the next one would overrun.

    Untraced runs return a list of passes.  Traced runs return a list
    of (untraced pass, traced pass, tracer summary) triples.
    """
    tracer = spans.Tracer({"qalinks." + m: getattr(L, m)
                           for m in LAYER_MODULES}) if trace else None
    passes = []
    lengths = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        gc.collect()
        if trace:
            plain = run_pass(L, runner, inputs, track)
            tracer.install()
            try:
                traced = run_pass(L, runner, inputs, track, tracer)
            finally:
                tracer.remove()
            factors = [r.seconds / r.raw for r in traced]
            passes.append((plain, traced, tracer.summary(factors)))
        else:
            passes.append(run_pass(L, runner, inputs, track))
        lengths.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - t_start
        if elapsed + statistics.median(lengths) > seconds:
            return passes, tracer


def quantile(values, q):
    """The q-th percentile, as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timings(passes, field):
    """rows_per_s (median over passes), row_p50_ms and row_p90_ms."""
    latencies_ms = [getattr(r, field) * 1e3 for p in passes for r in p]
    return {
        "rows_per_s": (statistics.median(rows_per_s(p, field)
                                         for p in passes), "1/s"),
        "row_p50_ms": (quantile(latencies_ms, 50), "ms"),
        "row_p90_ms": (quantile(latencies_ms, 90), "ms"),
    }


def end_to_end(passes, setup_s, violations):
    results = [r for p in passes for r in p]
    metrics = timings(passes, "seconds")
    metrics.update({
        "fail_frac": (sum(1 for r in results if r.err or r.bad)
                      / len(results), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "invariance_violations": (len(violations), "count"),
    })
    return metrics


def per_layer(triples):
    """Per-layer metrics of a traced run; counts from the first traced
    pass, times as medians over traced passes."""
    first = triples[0][2]
    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics[name + ".calls"] = (first["calls"][name], "count")
        metrics[name + ".self_ms"] = (statistics.median(
            s["self_ns"][name] for _, _, s in triples) / 1e6, "ms")
    metrics["homology.khovanov_f2.refused"] = (
        first["raised"].get(("homology.khovanov_f2", "SizeLimitError"), 0),
        "count")
    outs = [r.out for r in triples[0][1] if r.out and "status" in r.out]
    nodes = sum(out["nodes"] for out in outs)
    searches = first["calls"]["qa.qa_search"]
    search_s = statistics.median(
        s["total_ns"]["qa.qa_search"] for _, _, s in triples) / 1e9
    under = first["under"]
    metrics["qa.qa_search.nodes"] = (nodes, "count")
    metrics["qa.nodes_per_s"] = (nodes / search_s if search_s else 0.0, "1/s")
    metrics["qa.codes_per_node"] = (
        under.get(("qa.qa_search", "diagram.canonical_code"), 0) / nodes
        if nodes else 0.0, "ratio")
    metrics["qa.dets_per_node"] = (
        under.get(("qa.qa_search", "invariants.determinant"), 0) / nodes
        if nodes else 0.0, "ratio")
    metrics["qa.certified_frac"] = (
        sum(1 for out in outs if out["status"] == "certified") / searches
        if searches else 0.0, "ratio")
    plain_rate = statistics.median(rows_per_s(p) for p, _, _ in triples)
    traced_rate = statistics.median(rows_per_s(t) for _, t, _ in triples)
    metrics["trace.untraced_rows_per_s"] = (plain_rate, "1/s")
    metrics["trace.traced_rows_per_s"] = (traced_rate, "1/s")
    metrics["trace.rows_per_s_ratio"] = (traced_rate / plain_rate, "ratio")
    metrics["row.self_ms"] = (statistics.median(
        s["self_ns"][spans.ROW] for _, _, s in triples) / 1e6, "ms")
    # share of the traced rows' time that layer spans account for
    metrics["trace.covered_frac"] = (statistics.median(
        sum(s["self_ns"][n] for n in spans.SPAN_NAMES)
        / s["total_ns"][spans.ROW] for _, _, s in triples), "ratio")
    return metrics


def same_outputs(L, inputs, passes):
    """First-pass records, and the inputs whose record differs between
    passes (determinism check)."""
    def records(p):
        return [rows.record(L, row, r.out) if r.out else None
                for row, r in zip(inputs, p)]
    first = records(passes[0])
    differ = set()
    for p in passes[1:]:
        differ.update(row.label for row, a, b in zip(inputs, first, records(p))
                      if a != b)
    return first, sorted(differ)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "qalinks" / "__init__.py").is_file():
        print("perfbench: no qalinks package under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    track = speed.SpeedTrack()
    setups = [setup(args.workload, args.seed, track)
              for _ in range(SETUP_REPEATS)]
    modules, inputs, fixed, _ = setups[-1]
    setup_s = statistics.median(s[3] for s in setups)
    L = rows.Layers(*(modules["qalinks." + m] for m in LAYER_MODULES))
    runner = rows.RUNNERS[args.workload]

    passes, tracer = measure(L, runner, inputs, args.seconds, args.trace,
                             track)
    if args.trace:
        every = [p for plain, traced, _ in passes for p in (plain, traced)]
        timed = [traced for _, traced, _ in passes]
    else:
        every = timed = passes
    violations = invariance_violations(L, fixed)
    records, nondeterministic = same_outputs(L, inputs, every)
    if args.trace:
        calls = [s["calls"] for _, _, s in passes]
        if any(c != calls[0] for c in calls[1:]):
            nondeterministic.append("span counts differ between passes")

    problems = [{"input": row.label, "failed": r.bad, "error": r.err}
                for p in every for row, r in zip(inputs, p) if r.bad]
    correct = not problems and not nondeterministic
    results = [r for p in timed for r in p]

    if args.trace:
        metrics = per_layer(passes)
    else:
        metrics = end_to_end(passes, setup_s, violations)

    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": len(passes),
        "python": sys.version,
        "host": {"node": platform.node(), "machine": platform.machine(),
                 "platform": platform.platform()},
        "node_budget": corpus.NODE_BUDGET,
        "invariance_seed": corpus.INVARIANCE_SEED,
        "invariance_violations": violations,
        "speed_factor_median": statistics.median(
            speed.NOMINAL_S / s for s in track.seconds),
        "raw_wall_clock": {k: v for k, (v, _)
                           in timings(timed, "raw").items()},
        "rows": [dict(rec or {"input": row.label, "kind": row.kind},
                      error=r.err)
                 for row, rec, r in zip(inputs, records, timed[0])],
        "problems": problems,
        "nondeterministic": nondeterministic,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    (OUT / (stem + ".json")).write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        tracer.write(OUT / (stem + ".spans.tsv.gz"))

    for p in problems[:10]:
        print("check failed: %s" % json.dumps(p), file=sys.stderr)
    for label in nondeterministic[:10]:
        print("outputs differ between passes: %s" % label, file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": sum(1 for r in results if r.err or r.bad),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
