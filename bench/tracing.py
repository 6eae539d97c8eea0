"""Span tracing from outside the program, for the benchmark's traced run.

``install`` replaces each target function with a wrapper in *every* loaded
``luorbit`` module that binds it (``analysis.real_rank`` as well as
``rank.real_rank``), so calls between modules are seen too; ``restore`` puts
the originals back.  Spans stay in memory in the ``Tracer`` and are written
out once, at the end.  Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

#: (module under luorbit, function name) of every wrapped function.
TARGETS = (
    ("states", "singlet_product"),
    ("states", "embed_product"),
    ("states", "contract_pair"),
    ("states", "random_state"),
    ("lu", "apply_local"),
    ("lu", "random_su2"),
    ("lie_action", "tangent_matrix"),
    ("rank", "real_rank"),
    ("rank", "complement_dim"),
    ("analysis", "orbit_report"),
    ("analysis", "classify_min_orbit"),
    ("analysis", "factor_state"),
    ("verify", "verify_proposition"),
    ("cli", "main"),
)

ITEM = "bench.item"

# Fields of a closed span.  Spans are tuples of atoms, which the cyclic
# garbage collector stops tracking, so a long trace adds no collection work.
ID, NAME, START, END, PARENT, ITEM_ID, ATTRS = range(7)


class Tracer:
    """Spans of one process, appended as they close."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []
        self._next = 0
        self._item = None

    def open(self, name: str, item=None) -> None:
        if item is not None:
            self._item = item
        parent = self._open[-1][0] if self._open else None
        self._open.append((self._next, name, time.perf_counter(), parent))
        self._next += 1

    def close(self, attrs=None) -> None:
        end = time.perf_counter()
        sid, name, start, parent = self._open.pop()
        self.spans.append((sid, name, start, end, parent, self._item, attrs))
        if not self._open:
            self._item = None

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")


def _real_rank_attrs(args, kwargs, result) -> tuple:
    """(backend, computed real-view bytes, ill-conditioned) of one rank query."""
    tm = args[0]
    selector = args[1] if len(args) > 1 else kwargs.get("selector")
    if selector is None:
        cols = 3 * tm.n + 1
    else:
        cols = 3 * len(selector.triples) + int(selector.include_last)
    return (tm.mode, (2 << tm.n) * cols * 8, bool(result.ill_conditioned))


_ATTRS = {"rank.real_rank": _real_rank_attrs}


def _wrap(fn, name: str, tracer: Tracer):
    attrs = _ATTRS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close()
            raise
        tracer.close(attrs(args, kwargs, result) if attrs is not None else None)
        return result

    return traced


def install(tracer: Tracer, targets=TARGETS) -> list:
    """Wrap every binding of each target; returns the patches ``restore`` undoes."""
    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "luorbit" or name.startswith("luorbit."))
    ]
    patches = []
    for module_name, attr in targets:
        original = getattr(sys.modules[f"luorbit.{module_name}"], attr)
        wrapper = _wrap(original, f"{module_name}.{attr}", tracer)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, key, original))
                    setattr(module, key, wrapper)
    return patches


def restore(patches: list) -> None:
    for module, key, original in reversed(patches):
        setattr(module, key, original)


# ---------------------------------------------------------------------------
# self time and per-layer aggregation
# ---------------------------------------------------------------------------


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once.
    """
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    out = {}
    for span in spans:
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(span[ID], ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[span[ID]] = end - start - covered
    return out


def layer_name(span) -> str:
    """real_rank spans are split by backend: rank.real_rank.float / .exact."""
    if span[NAME] == "rank.real_rank":
        return f"rank.real_rank.{span[ATTRS][0]}"
    return span[NAME]


def summarize(spans, weights: dict) -> dict:
    """Per-layer totals over the spans of the items whose ids key ``weights``.

    Times of an item are multiplied by its weight, the speed factor that
    normalizes them (speed.py).  Returns {"items", "item_s", "layers":
    {name: {"calls", "self_s"}}, "view_bytes", "float_queries",
    "ill_queries", "rank_queries"}.
    """
    selves = self_times(spans)
    layers = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    out = {"items": 0, "item_s": 0.0, "view_bytes": 0, "float_queries": 0,
           "ill_queries": 0, "rank_queries": 0}
    for span in spans:
        weight = weights.get(span[ITEM_ID])
        if weight is None:
            continue
        name = layer_name(span)
        layers[name]["calls"] += 1
        layers[name]["self_s"] += selves[span[ID]] * weight
        if span[NAME] == ITEM:
            out["items"] += 1
            out["item_s"] += (span[END] - span[START]) * weight
        elif span[NAME] == "rank.real_rank":
            out["rank_queries"] += 1
            mode, view_bytes, ill = span[ATTRS]
            if mode == "float":
                out["float_queries"] += 1
                out["view_bytes"] += view_bytes
                out["ill_queries"] += ill
    out["layers"] = dict(layers)
    return out
