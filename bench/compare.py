"""Summarize one result set, or compare two, per workload and per metric.

    python3 bench/compare.py BASE.jsonl [NEW.jsonl]

A result set is a JSONL file of runs as ``sweep.py`` writes them.  For each
workload and metric the table gives the median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the quartile
distance as a share of the median.  Given two sets it adds the change of
the median, signed so that a positive number is a change for the worse, and
a verdict per end-to-end metric, using the bounds in BENCHMARK.json:

* ``unresolved`` when either set spreads more than the bound, unless every
  new run reads better than every base run;
* ``worse`` when the median got worse by more than the bound;
* ``better`` when the new run beats the base run in at least nine of ten
  pairs (the i-th run of each file, ties counting for neither) and the
  median improved by more than the base set's spread;
* ``same`` otherwise.

Per-layer metrics (traced runs) are listed without a verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> dict:
    """{(workload, trace): {metric: [values in file order]}} of one result set."""
    out = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            run = json.loads(line)
            key = (run["meta"]["workload"], run["meta"]["trace"])
            for name, metric in run["result"]["metrics"].items():
                out[key][name].append(metric["value"])
    return out


def stats(values) -> dict:
    """Median, quartiles and spread (quartile distance over |median|)."""
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else 0.0
    return {"n": len(values), "median": med, "q1": q1, "q3": q3, "spread": spread}


def verdict(base: list, new: list, better: str, bound: float) -> tuple:
    """(signed change of the median, positive = worse; verdict word)."""
    b, n = stats(base), stats(new)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (n["median"] - b["median"]) / abs(b["median"]) if b["median"] else 0.0
    all_better = (max(new) < min(base)) if better == "lower" else (min(new) > max(base))
    if max(b["spread"], n["spread"]) > bound and not all_better:
        return change, "unresolved"
    if change > bound:
        return change, "worse"
    wins = sum(1 for x, y in zip(base, new) if (y < x if better == "lower" else y > x))
    if wins >= 0.9 * min(len(base), len(new)) and -change > b["spread"]:
        return change, "better"
    return change, "same"


def _metric_specs() -> dict:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def report(base: dict, new: dict | None = None) -> str:
    specs = _metric_specs()
    lines = []
    for key in sorted(base):
        workload, trace = key
        lines.append(f"== {workload} ({'traced' if trace else 'timed'})")
        head = f"  {'metric':44} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}"
        if new is not None:
            head += f" {'new median':>12} {'change':>8}  verdict"
        lines.append(head)
        for name, values in base[key].items():
            s = stats(values)
            row = (f"  {name:44} {s['n']:>3} {s['median']:>12.6g} {s['q1']:>12.6g} "
                   f"{s['q3']:>12.6g} {s['spread']:>7.2%}")
            spec = specs.get(name, {})
            bound = spec.get("bound")
            if new is not None and name in new.get(key, {}):
                change, word = (None, "")
                if bound is not None:
                    change, word = verdict(values, new[key][name], spec["better"], bound)
                else:
                    nm = stats(new[key][name])["median"]
                    sign = 1.0 if spec.get("better", "lower") == "lower" else -1.0
                    change = sign * (nm - s["median"]) / abs(s["median"]) if s["median"] else 0.0
                row += f" {stats(new[key][name])['median']:>12.6g} {change:>+8.2%}  {word}"
            elif bound is not None and s["spread"] > bound:
                row += "  unsteady: spread above bound"
            lines.append(row)
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Summarize or compare benchmark result sets.")
    p.add_argument("base", help="JSONL result set")
    p.add_argument("new", nargs="?", help="second JSONL result set to compare against base")
    args = p.parse_args(argv)
    print(report(load(args.base), load(args.new) if args.new else None))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
