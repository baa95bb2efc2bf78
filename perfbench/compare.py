"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds result records written by ``run.py`` (it writes them
to ``.perfbench_work/results``; copy them aside between commits).  Records
are grouped by workload and trace flag, and each metric's median on both
sides is printed with the after/before ratio.  Results taken on different
jet backends, Python versions or CPU counts are refused: their difference
would not be the change's.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

MUST_MATCH = ("backend", "python", "nproc")


def load(directory):
    groups = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        groups[(rec["workload"], rec["trace"])].append(rec)
    return groups


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    records = [r for side in (before, after) for recs in side.values() for r in recs]
    for key in MUST_MATCH:
        seen = {r[key] for r in records}
        if len(seen) > 1:
            print(f"refusing to compare results with different {key}: {sorted(map(str, seen))}",
                  file=sys.stderr)
            return 2
    for group in sorted(set(before) & set(after)):
        workload, trace = group
        print(f"{workload} (trace {trace}): {len(before[group])} before, "
              f"{len(after[group])} after")
        for name, first in before[group][0]["metrics"].items():
            after_values = [r["metrics"][name]["value"] for r in after[group]
                            if name in r["metrics"]]
            if not after_values:
                print(f"  {name:34s} missing after")
                continue
            b = statistics.median(r["metrics"][name]["value"] for r in before[group])
            a = statistics.median(after_values)
            ratio = f"{a / b:8.3f}" if b else "     n/a"
            print(f"  {name:34s} {b:14.6g} -> {a:14.6g} {first['unit']:6s} x{ratio}")
        bad = [r["workload"] for r in before[group] + after[group] if not r["correct"]]
        if bad:
            print(f"  {len(bad)} incorrect run(s) in this group")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
