"""The four benchmark workloads: item schedules, seeded inputs, execution, checks.

An item is one closed-loop request: the benchmark builds its input, calls the
public API, and checks the verdict against the truth it planted.  Inputs come
only from ``(workload, seed, stream, index)`` through ``random.Random``, so the
same seed gives the same inputs in every process, and the program sees only
pairings, integer seeds and rational numerators/denominators (written as JSON
state files for ``exact_cli``).

Each workload runs a fixed cycle of item classes ``(n, kind)``.  The class
counts in a cycle are chosen so that the median and the 90th percentile of
item latency fall inside one class's cluster rather than on the edge between
two, which keeps both percentiles steady from seed to seed.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

# float_report: S = LU-scrambled singlet product, H = Haar state; 3/4 are S.
FLOAT_REPORT = (
    (8, "S"), (10, "S"), (12, "S"), (13, "S"), (8, "H"),
    (8, "S"), (10, "S"), (12, "H"), (13, "S"), (10, "H"),
    (8, "S"), (10, "S"), (12, "S"), (13, "S"), (8, "H"),
    (8, "S"), (10, "S"), (12, "S"), (13, "S"), (13, "H"),
)

# factor_canonical: canonical pairs (plus a random lone qubit for odd n).
FACTOR_CANONICAL = tuple((n, "C") for n in (11, 12, 13, 11, 12, 11, 12, 13, 11, 12))

# exact_cli: R = random rational state, S = exact singlet product,
# P = canonical pair on two planted qubits tensored with a rational rest.
EXACT_CLI = (
    (4, "S"), (5, "R"), (6, "P"), (7, "P"), (4, "R"),
    (5, "P"), (5, "R"), (6, "R"), (4, "P"), (5, "S"),
    (7, "R"), (4, "S"), (5, "R"), (6, "S"), (4, "R"),
    (5, "P"), (5, "R"), (7, "P"), (4, "P"), (7, "S"),
)

# verify_suites: every registered suite at n=6 and, at n=8, every one but
# the two that flip a coin per trial between a float path (about 1 ms) and an
# exact Fraction path (50-170 ms at n=8): twocommonstrong and triplesprop.
# At n=8 those draws alone spread throughput by 5% between seeds; exact
# arithmetic is what exact_cli measures.  ranktripluinv at n=8 (all 2^n
# subsets, on two tangent matrices) runs four times a cycle, so the 90th
# percentile lies inside its latency cluster instead of on an edge between
# two.  The suite table is copied here so the schedule does not depend on
# the program.
_SUITES_AT_6 = (
    "triplesprop", "ranktripluinv", "twocommonstrong", "twocommonstronggen",
    "twotripspan5", "minrankMstrong", "bipartiteranksadd", "twotripspan3factors",
    "trippluslonelyspan3", "unentrank", "pair_span_trichotomy",
    "minorbclassthm_roundtrip",
)
_SUITES_AT_8 = tuple(
    s for s in _SUITES_AT_6 if s not in ("bipartiteranksadd", "twocommonstrong", "triplesprop")
)
VERIFY_SUITES = (
    tuple((6, s) for s in _SUITES_AT_6)
    + tuple((8, s) for s in _SUITES_AT_8)
    + ((8, "ranktripluinv"),) * 3
)

SCHEDULES = {
    "float_report": FLOAT_REPORT,
    "factor_canonical": FACTOR_CANONICAL,
    "exact_cli": EXACT_CLI,
    "verify_suites": VERIFY_SUITES,
}

WORKLOADS = tuple(SCHEDULES)


def min_orbit_dimension(n: int) -> int:
    """3n/2 for even n, (3n+1)/2 for odd n: the minimum the paper proves."""
    return (3 * n) // 2 if n % 2 == 0 else (3 * n + 1) // 2


def generic_orbit_dimension(n: int) -> int:
    """Orbit dimension of a generic n-qubit state (full rank for n >= 3)."""
    return {1: 2, 2: 5}.get(n, 3 * n)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def _rng(workload: str, seed: int, stream: str, index: int) -> random.Random:
    # String seeds are hashed with SHA-512, so they do not depend on
    # PYTHONHASHSEED and repeat across processes.
    return random.Random(f"{workload}/{seed}/{stream}/{index}")


def _pairing(rng: random.Random, n: int):
    order = list(range(1, n + 1))
    rng.shuffle(order)
    pairs = sorted(tuple(sorted(order[2 * i: 2 * i + 2])) for i in range(n // 2))
    return [list(p) for p in pairs], (order[-1] if n % 2 else None)


def _rationals(rng: random.Random, count: int) -> list:
    """[[re, im], ...] as 'p/q' strings, not all zero (as random_rational_state draws)."""
    while True:
        parts = [
            [str(Fraction(rng.randint(-9, 9), rng.randint(1, 4))) for _ in range(2)]
            for _ in range(count)
        ]
        if any(p != "0" for pair in parts for p in pair):
            return parts


def make_item(workload: str, seed: int, stream: str, index: int) -> dict:
    """The JSON-ready spec of item ``index`` of a workload's ``stream``."""
    schedule = SCHEDULES[workload]
    n, kind = schedule[index % len(schedule)]
    rng = _rng(workload, seed, stream, index)
    spec = {"index": index, "n": n, "kind": kind, "cls": f"{n}{kind}"}
    if workload == "verify_suites":
        spec.update(cls=f"{kind}@{n}", suite=kind, seed=rng.getrandbits(32))
    elif workload == "float_report":
        if kind == "S":
            spec["pairs"], spec["lone"] = _pairing(rng, n)
        spec["seed"] = rng.getrandbits(32)
    elif workload == "factor_canonical":
        spec["pairs"], spec["lone"] = _pairing(rng, n)
        spec["seed"] = rng.getrandbits(32)
    else:
        if kind == "R":
            spec["amplitudes"] = _rationals(rng, 1 << n)
        elif kind == "S":
            spec["pairs"], spec["lone"] = _pairing(rng, n)
        else:
            pair = sorted(rng.sample(range(1, n + 1), 2))
            spec["pairs"] = [pair]
            spec["rest"] = _rationals(rng, 1 << (n - 2))
    return spec


def warmup_items(workload: str, seed: int) -> list:
    """One item of every class in the cycle, from a stream the timed loop never uses."""
    schedule = SCHEDULES[workload]
    first = {}
    for i, cls in enumerate(schedule):
        first.setdefault(cls, i)
    return [make_item(workload, seed, "warmup", i) for i in sorted(first.values())]


def _exact_amplitudes(spec: dict) -> list:
    """Amplitudes of an exact_cli item, qubit 1 being the most significant bit."""
    n, kind = spec["n"], spec["kind"]
    if kind == "R":
        return spec["amplitudes"]

    def bit(code, q):
        return (code >> (n - q)) & 1

    out = []
    if kind == "S":
        for code in range(1 << n):
            on = all(bit(code, a) == bit(code, b) for a, b in spec["pairs"])
            if spec["lone"] is not None and bit(code, spec["lone"]):
                on = False
            out.append(["1" if on else "0", "0"])
        return out
    (l, lp), = spec["pairs"]
    rest = [q for q in range(1, n + 1) if q not in (l, lp)]
    for code in range(1 << n):
        if bit(code, l) != bit(code, lp):
            out.append(["0", "0"])
            continue
        sub = 0
        for q in rest:
            sub = (sub << 1) | bit(code, q)
        out.append(spec["rest"][sub])
    return out


# ---------------------------------------------------------------------------
# execution: prepare (untimed), execute (timed), check (untimed)
# ---------------------------------------------------------------------------


def prepare(workload: str, spec: dict, workdir: str) -> dict:
    """Untimed per-item input work: exact_cli writes the item's state file."""
    if workload != "exact_cli":
        return {}
    stem = os.path.join(workdir, f"item{spec['index']}")
    state = {"n": spec["n"], "mode": "exact", "amplitudes": _exact_amplitudes(spec)}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(state, fh)
    return {"state": stem + ".json", "out": stem + ".out.json"}


def execute(workload: str, spec: dict, files: dict):
    """One item through the public API, from state construction to the verdict."""
    import luorbit as lo

    n = spec["n"]
    if workload == "float_report":
        if spec["kind"] == "S":
            psi = lo.singlet_product(n, spec["pairs"], spec["lone"])
            psi = lo.apply_local(psi, lo.LocalUnitary.random(n, spec["seed"]))
        else:
            psi = lo.random_state(n, spec["seed"])
        return lo.orbit_report(psi)
    if workload == "factor_canonical":
        placements = [(tuple(p), lo.canonical_pair_state()) for p in spec["pairs"]]
        lone_state = None
        if spec["lone"] is not None:
            lone_state = lo.random_state(1, spec["seed"])
            placements.append(((spec["lone"],), lone_state))
        return lo.factor_state(lo.embed_product(n, placements)), lone_state
    if workload == "exact_cli":
        from luorbit import cli

        return cli.main(["analyze", files["state"], "--out", files["out"]])
    return lo.verify_proposition(spec["suite"], n, trials=1, seed=spec["seed"])


def check(workload: str, spec: dict, files: dict, output) -> str:
    """Compare an item's output with the planted truth; '' when correct."""
    n = spec["n"]
    if workload == "float_report":
        return _check_report(spec, output.to_json_dict())
    if workload == "factor_canonical":
        return _check_factor(spec, *output)
    if workload == "exact_cli":
        if output != 0:
            return f"cli exit {output}"
        try:
            with open(files["out"], encoding="utf-8") as fh:
                report = json.load(fh)
        finally:
            for path in files.values():
                if os.path.exists(path):
                    os.remove(path)
        if report.get("diagnostics", {}).get("backend") != "exact":
            return "report does not name the exact backend"
        return _check_report(spec, report)
    if output.suite != spec["suite"] or output.n != n:
        return f"report is for {output.suite} n={output.n}"
    return "" if output.passed else f"suite failed: {output.summary_line()}"


_REPORT_FIELDS = (
    "n", "rank", "orbit_dimension", "min_orbit_dimension", "is_minimal",
    "pair_span", "lone_span", "pairing", "diagnostics",
)


def _check_report(spec: dict, report: dict) -> str:
    missing = [f for f in _REPORT_FIELDS if f not in report]
    if missing:
        return f"report lacks fields {missing}"
    n, kind = spec["n"], spec["kind"]
    if "pairing_error" in report["diagnostics"]:
        return f"pairing_error: {report['diagnostics']['pairing_error']}"
    if kind == "S":
        want_dim = min_orbit_dimension(n)
        want_pairing = {"pairs": spec["pairs"], "lone": spec["lone"]}
    elif kind == "P":
        want_dim = 3 + generic_orbit_dimension(n - 2)
        want_pairing = None
        (l, lp), = spec["pairs"]
        if report["pair_span"][l - 1][lp - 1] != 3:
            return f"planted pair ({l},{lp}) spans {report['pair_span'][l - 1][lp - 1]}, not 3"
    else:
        want_dim = generic_orbit_dimension(n)
        want_pairing = None
    got = (report["n"], report["orbit_dimension"], report["rank"], report["is_minimal"])
    want = (n, want_dim, want_dim + 1, want_dim == min_orbit_dimension(n))
    if got != want:
        return f"(n, orbit_dimension, rank, is_minimal) = {got}, expected {want}"
    if report["pairing"] != want_pairing:
        return f"pairing {report['pairing']}, expected {want_pairing}"
    return ""


def _check_factor(spec: dict, fac, lone_state) -> str:
    import numpy as np

    pairs = sorted(sorted(p) for p in fac.pairs)
    if (fac.n, pairs, fac.lone) != (spec["n"], spec["pairs"], spec["lone"]):
        return (f"n={fac.n} factors {pairs} lone {fac.lone}, expected "
                f"n={spec['n']} {spec['pairs']} lone {spec['lone']}")
    if lone_state is None:
        return "" if fac.residual is None else "even n left a residual"
    overlap = abs(np.vdot(lone_state.vector, fac.residual.vector))
    if abs(overlap - 1.0) > 1e-8:
        return f"lone residual overlaps the planted qubit state by {overlap:.12f}"
    return ""
