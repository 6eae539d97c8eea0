"""One benchmark process: warm up, then run a workload's items in a closed loop.

Started by ``run.py`` with ``src`` on PYTHONPATH and the BLAS thread setting
already in its environment, so the setting holds before numpy loads.  Writes
one JSON object to ``--out``:

    {"latencies": [...], "factors": [...], "refs": [...], "nominal_s",
     "attempted", "failed", "failed_items", "failures": [...], "loop_s",
     "maxrss_mb", "meta": {...}, "trace": {...} (traced runs only)}

``factors[i]`` is the speed factor (see speed.py) that normalizes item i.

With ``--seconds`` items are started until the time is up; with ``--items``
exactly that many are run; ``--setup`` runs only the first warm-up item.
Every item, warm-up ones included, is checked against its planted truth.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import tempfile
import time

import speed
import workloads


def _meta() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        blas_cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_cfg.get('name')} {blas_cfg.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    }


def _run(workload, spec, workdir, tracer=None, item_id=None):
    """Returns (latency in seconds, failure message or '')."""
    files = workloads.prepare(workload, spec, workdir)
    message = None
    start = time.perf_counter()
    if tracer is not None:
        tracer.open("bench.item", item=item_id)
    try:
        output = workloads.execute(workload, spec, files)
    except Exception as exc:  # a crash is a failed item, never a skipped one
        message = f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.close()
    latency = time.perf_counter() - start
    if message is None:
        try:
            message = workloads.check(workload, spec, files, output)
        except Exception as exc:  # output of the wrong shape is a wrong verdict
            message = f"unreadable output: {type(exc).__name__}: {exc}"
    return latency, message


def _prefix(item_s: list, cycle: int, budget: float) -> int:
    """Leading whole cycles of items whose traced time fits in ``budget`` (one at least)."""
    total, best = 0.0, 0
    for i, t in enumerate(item_s, start=1):
        total += t
        if total > budget:
            break
        if i % cycle == 0:
            best = i
    return best or min(cycle, len(item_s))


class _Tally:
    def __init__(self):
        self.attempted = 0
        self.failed_items = []
        self.failures = []

    def record(self, key, spec, message):
        self.attempted += 1
        if message:
            self.failures.append({"item": key, "cls": spec["cls"], "message": message})
            if isinstance(key, int):
                self.failed_items.append(key)


def _overhead(args, tracer, tracing, item_s, workdir, tally) -> dict:
    """Tracing overhead on paired runs of the same leading items in this process.

    Each item runs once unpatched and once traced, in alternating order, so
    drifts in machine speed fall on both sides alike.
    """
    m = _prefix(item_s, len(workloads.SCHEDULES[args.workload]), args.overhead_budget)
    plain = traced = 0.0
    for i in range(m):
        spec = workloads.make_item(args.workload, args.seed, "timed", i)
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            patches = tracing.install(tracer) if with_trace else None
            latency, message = _run(args.workload, spec, workdir,
                                    tracer if with_trace else None, f"pair{i}")
            if patches is not None:
                tracing.restore(patches)
            tally.record(f"pair{i}", spec, message)
            if with_trace:
                traced += latency
            else:
                plain += latency
    return {"items": m, "traced_s": traced, "plain_s": plain}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--items", type=int)
    mode.add_argument("--setup", action="store_true")
    p.add_argument("--trace", default=None, help="record spans and write them here")
    p.add_argument("--overhead-budget", type=float, default=None,
                   help="traced seconds of leading items to rerun for the tracing overhead")
    args = p.parse_args(argv)

    tracer = patches = None
    if args.trace:
        import luorbit  # noqa: F401  (load every module before wrapping)
        import luorbit.cli  # noqa: F401
        import tracing

        tracer = tracing.Tracer()
        patches = tracing.install(tracer)

    warmup = workloads.warmup_items(args.workload, args.seed)
    if args.setup:
        warmup = warmup[:1]
    reference = speed.Reference(args.workload)
    tally = _Tally()
    latencies = []
    refs = []
    with tempfile.TemporaryDirectory(dir=os.path.dirname(os.path.abspath(args.out))) as workdir:
        for i, spec in enumerate(warmup):
            _, message = _run(args.workload, spec, workdir, tracer, f"warmup{i}")
            tally.record(f"warmup{i}", spec, message)
        warm_refs = [reference.sample() for _ in range(5)]
        loop_start = time.perf_counter()
        deadline = loop_start + args.seconds if args.seconds is not None else None
        index = 0
        while not args.setup:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            if args.items is not None and index >= args.items:
                break
            spec = workloads.make_item(args.workload, args.seed, "timed", index)
            refs.append(reference.sample())
            latency, message = _run(args.workload, spec, workdir, tracer, index)
            latencies.append(latency)
            tally.record(index, spec, message)
            index += 1
        loop_s = time.perf_counter() - loop_start
        if args.setup:
            refs = warm_refs
        factors = speed.factors(refs, reference.nominal_s)

        if tracer is not None:
            tracing.restore(patches)
            spans = sorted(tracer.spans)
            cycle = len(workloads.SCHEDULES[args.workload])
            weights = dict(enumerate(factors))
            trace = {
                "all": tracing.summarize(spans, weights),
                "first_cycle": tracing.summarize(
                    spans, {i: weights[i] for i in range(min(cycle, len(latencies)))}),
            }
            if args.overhead_budget is not None:
                item_s = [s[tracing.END] - s[tracing.START] for s in spans
                          if s[tracing.NAME] == tracing.ITEM and isinstance(s[tracing.ITEM_ID], int)]
                trace["overhead"] = _overhead(args, tracer, tracing, item_s, workdir, tally)
            tracer.write(args.trace)

    result = {
        "latencies": latencies,
        "factors": factors,
        "refs": refs,
        "nominal_s": reference.nominal_s,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "failed_items": tally.failed_items,
        "failures": tally.failures[:20],
        "loop_s": loop_s,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "meta": _meta(),
    }
    if tracer is not None:
        result["trace"] = trace
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
