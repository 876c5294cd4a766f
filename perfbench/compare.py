"""Compare two sets of benchmark result files, metric by metric.

    python3 perfbench/compare.py --base A/*.json --new B/*.json

Result files are the ones perfbench/run.py writes under .bench_out/results/.
For every workload and end-to-end metric found on both sides, this prints
each side's median and quartiles, the change of the median, and whether it
is worse than the bound BENCHMARK.json fixes. It refuses to compare results
whose kernel backends differ: a compiled LCS kernel makes score_cjk about
ten times cheaper, so that difference says nothing about the code under
test. Exit code: 0 when no metric is worse than its bound, 1 when one is,
2 when the results cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[str]) -> dict:
    """{workload: [result, ...]} of the untraced results among ``paths``."""
    grouped = defaultdict(list)
    for path in paths:
        result = json.loads(Path(path).read_text(encoding="utf-8"))
        if not result["trace"]:
            grouped[result["workload"]].append(result)
    return grouped


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, new = load(args.base), load(args.new)
    backends = {
        r["environment"]["kernel_backend"] for side in (base, new) for rs in side.values() for r in rs
    }
    if len(backends) > 1:
        print(f"refusing to compare: kernel backends differ {sorted(backends)}", file=sys.stderr)
        return 2
    for key in ("python", "numpy", "nproc"):
        seen = {r["environment"][key] for side in (base, new) for rs in side.values() for r in rs}
        if len(seen) > 1:
            print(f"warning: {key} differs between results {sorted(map(str, seen))}")

    worse = False
    print("workload metric base_median [q1 q3] new_median [q1 q3] change bound verdict")
    for workload in sorted(base.keys() & new.keys()):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = quartiles([r["metrics"][name] for r in base[workload]])
            n = quartiles([r["metrics"][name] for r in new[workload]])
            change = n[1] / b[1] - 1
            regress = change if metric["better"] == "lower" else -change
            verdict = "worse" if regress > metric["bound"] else "ok"
            worse = worse or verdict == "worse"
            print(
                f"{workload} {name} {b[1]:.6g} [{b[0]:.6g} {b[2]:.6g}] "
                f"{n[1]:.6g} [{n[0]:.6g} {n[2]:.6g}] {change:+.2%} {metric['bound']} {verdict}"
            )
        failed = sum(r["failed"] for r in new[workload])
        if failed:
            worse = True
            print(f"{workload} new results report {failed} failed operations")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
