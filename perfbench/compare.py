"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Reads every untraced results file (``*.json`` written by ``run.py``) under
each directory. For each workload and end-to-end metric of
``BENCHMARK.json`` it prints both medians, both quartile ranges (first to
third quartile, and their distance as a share of the median) and a verdict
under the metric's bound:

- unresolved: a set's quartile distance exceeds the bound, and the runs
  of the two sets overlap;
- worse: the new median is worse than the base median by more than the bound;
- better: the new median is better by more than both sets' quartile
  distances, and at least nine in ten (base, new) pairs of runs favour new;
- unchanged: otherwise.

It also prints each set's share of failed operations. The exit status is
1 when any verdict is "worse", else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.rglob("*.json")):
        result = json.loads(path.read_text())
        if result.get("manifest", {}).get("trace") == 0:
            runs.setdefault(result["workload"], []).append(result)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], bound: float, higher: bool) -> str:
    sign = 1.0 if higher else -1.0
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    spread = max((b3 - b1) / bm, (n3 - n1) / nm)
    gain = sign * (nm - bm) / bm  # > 0 when new is better
    pairs = [sign * (n - b) for b in base for n in new]
    if spread > bound and not (all(p > 0 for p in pairs) or all(p < 0 for p in pairs)):
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > spread and sum(p > 0 for p in pairs) >= 0.9 * len(pairs):
        return "better"
    return "unchanged"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    worse = False
    header = f"{'workload':<15} {'metric':<12} {'base median':>12} {'base Q1-Q3':>21} {'IQR':>6}" \
             f" {'new median':>12} {'new Q1-Q3':>21} {'IQR':>6} {'change':>8}  verdict"
    print(header)
    for workload in sorted(set(base) | set(new)):
        if workload not in base or workload not in new:
            print(f"{workload:<15} only in {'base' if workload in base else 'new'}")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base[workload]]
            n = [r["metrics"][name]["value"] for r in new[workload]]
            (b1, bm, b3), (n1, nm, n3) = quartiles(b), quartiles(n)
            v = verdict(b, n, metric["bound"], metric["better"] == "higher")
            worse |= v == "worse"
            print(f"{workload:<15} {name:<12} {bm:>12.5g} {f'{b1:.5g}-{b3:.5g}':>21} {(b3 - b1) / bm:>6.1%}"
                  f" {nm:>12.5g} {f'{n1:.5g}-{n3:.5g}':>21} {(n3 - n1) / nm:>6.1%} {(nm - bm) / bm:>+8.1%}  {v}")
        for label, runs in (("base", base[workload]), ("new", new[workload])):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            print(f"{workload:<15} {label} runs: {len(runs)}, failed {failed} of {attempted} operations")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
