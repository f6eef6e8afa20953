"""Which bench rows differ between two checkouts, as Markdown.

Usage, after perfbench/run.py has run the same workloads and seed with
--trace 0 in both checkouts:

    python3 rows_vs_base.py BASE_TREE HEAD_TREE --seed 21 \
        --workload qa-orbits --workload table-rows

Reads perfbench/out/<workload>-seed<seed>-trace0.json of each tree and
compares the records row by row (the input, its outputs and its error),
and the problems and invariance_violations fields.  It only reports:
a feature change moves rows on purpose, so the exit status is 0 even
when rows differ or a record is missing.
"""

import argparse
import json
from pathlib import Path

FIELDS = ("problems", "invariance_violations")


def load(tree, workload, seed):
    path = (Path(tree) / "perfbench" / "out"
            / ("%s-seed%d-trace0.json" % (workload, seed)))
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return "no record at %s (%s)" % (path, exc.__class__.__name__)


def compare(base, head):
    """Markdown lines naming what differs between two records."""
    if isinstance(base, str) or isinstance(head, str):
        return ["- " + r for r in (base, head) if isinstance(r, str)]
    lines = []
    for i, (old, new) in enumerate(zip(base["rows"], head["rows"])):
        if old != new:
            lines.append("- row %d `%s`: `%s` -> `%s`"
                         % (i, new.get("input"), json.dumps(old),
                            json.dumps(new)))
    if len(base["rows"]) != len(head["rows"]):
        lines.append("- %d rows -> %d rows"
                     % (len(base["rows"]), len(head["rows"])))
    for field in FIELDS:
        if base[field] != head[field]:
            lines.append("- `%s`: `%s` -> `%s`" % (
                field, json.dumps(base[field]), json.dumps(head[field])))
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workload", action="append", required=True)
    args = ap.parse_args(argv)
    print("### Bench rows, base vs head (seed %d)\n" % args.seed)
    for workload in args.workload:
        base = load(args.base, workload, args.seed)
        head = load(args.head, workload, args.seed)
        lines = compare(base, head)
        if lines:
            print("**%s**: %d differences\n" % (workload, len(lines)))
            print("\n".join(lines) + "\n")
        else:
            print("**%s**: all %d rows identical\n"
                  % (workload, len(head["rows"])))
    return 0


if __name__ == "__main__":
    main()
