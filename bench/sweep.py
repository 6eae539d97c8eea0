"""Run the benchmark over several seeds and collect a result set.

    python3 bench/sweep.py --workloads all --seeds 1-10 --trace 0 --out results.jsonl

Each run is one ``bench/run.py`` process; its metadata line and result line
are appended to ``--out`` as one JSON object per line, which ``compare.py``
reads.  The summary table is printed at the end.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import compare
import workloads

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run bench/run.py over seeds into a JSONL file.")
    p.add_argument("--workloads", default="all", help="comma list, or all")
    p.add_argument("--seeds", default="1-10", help="like 1-10 or 3,5,8")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    names = workloads.WORKLOADS if args.workloads == "all" else args.workloads.split(",")
    with open(args.out, "a", encoding="utf-8") as out:
        for name in names:
            for seed in _seeds(args.seeds):
                cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or len(lines) < 2:
                    print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                          file=sys.stderr)
                    return 1
                meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
                out.write(json.dumps({"meta": meta, "result": result}) + "\n")
                out.flush()
                print(f"{name} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}",
                      file=sys.stderr)
    print(compare.report(compare.load(args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
