"""The luorbit benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The program is imported from
``src/`` through PYTHONPATH.  Every measured process is a fresh child of
this one, started with OPENBLAS_NUM_THREADS=1 in its environment so that
numpy loads single-threaded.  Reported times are normalized to a reference
machine speed (speed.py); the raw figures are kept in the metadata.

``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` makes the traced run and reports the per-layer ones.
Standard output ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
``{"meta": {...}}`` with the run's metadata.  Spans of a traced run are
written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

#: Fresh interpreters timed for setup_s; the median is reported.
SETUP_PROBES = 7

#: Every child process must end this long after the run started.
DEADLINE_S = 170

#: (name, unit) of the end-to-end metrics, reported with --trace 0.
END_TO_END = (
    ("items_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("correct_frac", "frac"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)

_CALLS_AND_SELF = (
    "states.embed_product", "states.contract_pair", "lu.apply_local",
    "lie_action.tangent_matrix", "rank.real_rank.float", "rank.real_rank.exact",
    "rank.complement_dim", "analysis.classify_min_orbit",
)
_SELF_ONLY = (
    "states.singlet_product", "states.random_state", "lu.random_su2",
    "analysis.orbit_report", "analysis.factor_state", "verify.verify_proposition",
    "cli.main", "bench.item",
)

#: (name, unit) of the per-layer metrics, reported with --trace 1.
PER_LAYER = (
    tuple((f"{layer}.calls", "calls/item") for layer in _CALLS_AND_SELF)
    + tuple((f"{layer}.self_s", "s/item") for layer in _CALLS_AND_SELF + _SELF_ONLY)
    + (
        ("rank.float.view_mb", "MB/item"),
        ("rank.real_rank.float.self_s.blas_default", "s/item"),
        ("rank.ill_conditioned_frac", "frac"),
        ("analysis.rank_queries_per_item", "queries/item"),
        ("trace.item_s", "s/item"),
        ("trace.layer_self_frac", "frac"),
        ("trace.overhead_frac", "frac"),
    )
)


class ChildFailed(RuntimeError):
    pass


_START = time.perf_counter()


def _child_env(threads: str | None) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


def _worker(workdir: str, args: list, threads: str | None = "1"):
    """Run worker.py to completion; returns (its JSON result, wall seconds)."""
    out = os.path.join(workdir, "worker.json")
    cmd = [sys.executable, str(BENCH / "worker.py"), "--out", out, *args]
    start = time.perf_counter()
    # Waiting on a pipe wakes at the child's exit; a bare wait with a timeout
    # would poll in steps of up to 50 ms and quantize the set-up times.
    proc = subprocess.run(cmd, env=_child_env(threads), cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=max(1.0, _START + DEADLINE_S - start))
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise ChildFailed(f"worker {' '.join(args)} exited with {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(out)
    return result, wall


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _src_digest() -> str:
    """SHA-256 over the program's source files, naming the code even without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _cycle_rate(lat_s: list, failed_items: list, cycle: int) -> float:
    """Correct items per second of item time over the run's complete cycles.

    Whole cycles hold the workload's stated item mix; a trailing partial
    cycle would tilt the rate toward whichever classes it happened to hold.
    """
    done = len(lat_s) // cycle * cycle
    if done == 0:
        raise ValueError(f"the run completed no full cycle of {cycle} items")
    failed = sum(1 for i in failed_items if i < done)
    return (done - failed) / sum(lat_s[:done])


def _timed_run(workdir: str, workload: str, seed: int, seconds: int):
    failed = attempted = 0
    setups = []
    raw_setups = []
    for _ in range(SETUP_PROBES):
        probe, wall = _worker(workdir, ["--workload", workload, "--seed", str(seed), "--setup"])
        # The probe times its reference after the warm-up item; that time is
        # not set-up work.
        own = wall - sum(probe["refs"])
        raw_setups.append(own)
        setups.append(own * probe["nominal_s"] / statistics.median(probe["refs"]))
        attempted += probe["attempted"]
        failed += probe["failed"]
    res, _ = _worker(workdir, ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds)])
    attempted += res["attempted"]
    failed += res["failed"]
    cycle = len(workloads.SCHEDULES[workload])
    lat_ms = [x * f * 1e3 for x, f in zip(res["latencies"], res["factors"])]
    raw_ms = [x * 1e3 for x in res["latencies"]]
    p90 = statistics.quantiles(lat_ms, n=10)[8]
    metrics = {
        "items_per_s": _metric(
            _cycle_rate([x / 1e3 for x in lat_ms], res["failed_items"], cycle), "1/s"),
        "latency_p50_ms": _metric(statistics.median(lat_ms), "ms"),
        "latency_p90_ms": _metric(p90, "ms"),
        "correct_frac": _metric(1.0 - failed / attempted, "frac"),
        "peak_rss_mb": _metric(res["maxrss_mb"], "MiB"),
        "setup_s": _metric(statistics.median(setups), "s"),
    }
    meta = {
        "timed_items": len(lat_ms),
        "items_beyond_p90": sum(1 for x in lat_ms if x > p90),
        "speed_factor_median": statistics.median(res["factors"]),
        "loop_wall_s": res["loop_s"],
        "unnormalized": {
            "items_per_s": _cycle_rate(res["latencies"], res["failed_items"], cycle),
            "latency_p50_ms": statistics.median(raw_ms),
            "latency_p90_ms": statistics.quantiles(raw_ms, n=10)[8],
            "setup_s": statistics.median(raw_setups),
        },
        "setup_probes_s": setups,
        "failures": res["failures"],
        **res["meta"],
    }
    return attempted, failed, metrics, meta


def _per_item(summary: dict, layer: str, key: str) -> float:
    return summary["layers"].get(layer, {}).get(key, 0) / max(summary["items"], 1)


def _traced_run(workdir: str, workload: str, seed: int, seconds: int):
    base = ["--workload", workload, "--seed", str(seed)]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    res, _ = _worker(workdir, base + ["--seconds", str(seconds), "--trace", str(spans),
                                      "--overhead-budget", str(seconds / 8)])
    overhead = res["trace"]["overhead"]
    # The same leading items again, traced at the machine's default BLAS
    # thread count: shows the threading effect outside the bounded metrics.
    blas_default, _ = _worker(
        workdir,
        base + ["--items", str(overhead["items"]), "--trace", os.path.join(workdir, "spans.jsonl")],
        threads=None,
    )
    attempted = res["attempted"] + blas_default["attempted"]
    failed = res["failed"] + blas_default["failed"]

    summary = res["trace"]["all"]
    metrics = {}
    for layer in _CALLS_AND_SELF:
        metrics[f"{layer}.calls"] = _per_item(summary, layer, "calls")
    for layer in _CALLS_AND_SELF + _SELF_ONLY:
        metrics[f"{layer}.self_s"] = _per_item(summary, layer, "self_s")
    glue = summary["layers"].get("bench.item", {}).get("self_s", 0.0)
    first = res["trace"]["first_cycle"]
    metrics.update({
        "rank.float.view_mb": summary["view_bytes"] / 1e6 / max(summary["items"], 1),
        "rank.real_rank.float.self_s.blas_default": _per_item(
            blas_default["trace"]["all"], "rank.real_rank.float", "self_s"),
        "rank.ill_conditioned_frac": summary["ill_queries"] / max(summary["float_queries"], 1),
        "analysis.rank_queries_per_item": first["rank_queries"] / max(first["items"], 1),
        "trace.item_s": summary["item_s"] / max(summary["items"], 1),
        "trace.layer_self_frac": 1.0 - glue / summary["item_s"],
        "trace.overhead_frac": overhead["traced_s"] / overhead["plain_s"] - 1.0,
    })
    units = dict(PER_LAYER)
    meta = {
        "timed_items": len(res["latencies"]),
        "overhead_pairs": overhead["items"],
        "spans_file": str(spans.relative_to(ROOT)),
        "failures": res["failures"] + blas_default["failures"],
        "blas_default_threads": blas_default["meta"]["openblas_num_threads"],
        **res["meta"],
    }
    return attempted, failed, {k: _metric(v, units[k]) for k, v in metrics.items()}, meta


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="luorbit benchmark (see bench/README.md)")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "luorbit" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'luorbit'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        run = _traced_run if args.trace else _timed_run
        attempted, failed, metrics, meta = run(workdir, args.workload, args.seed, args.seconds)
    except (ChildFailed, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "attempted": attempted,
    })
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
