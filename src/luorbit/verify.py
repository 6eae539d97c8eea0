"""Randomized, seeded verification suites for the package's structural claims.

Each registered suite draws instances (random states, scrambled pair
products, partially entangled pairs, ...) and checks one structural
property of the tangent matrix against independent evidence such as
Schmidt coefficients or reduced-state purity.  Failures are reported with
full state dumps so any counterexample can be replayed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .analysis import (
    NotMinimal,
    SingletPairing,
    classify_min_orbit,
    orbit_dimension,
    pairing_equal,
)
from .lie_action import apply_x, apply_y, apply_z, real_dot, tangent_matrix
from .lu import LocalUnitary, apply_local
from .rank import DEFAULT_TOL, ColumnSelector, complement_basis, complement_dim, span_dim
from .states import (
    EXACT,
    FLOAT,
    StateVector,
    _pair_rows,
    canonical_pair_state,
    embed_product,
    random_rational_state,
    random_state,
    singlet_product,
    tensor,
)

#: Orthogonality threshold for unit-norm floating states.
ORTHO_TOL = 1e-10

#: Purity within this of 1 counts a reduced single-qubit state as pure.
PURITY_TOL = 1e-8


@dataclass(frozen=True)
class TrialFailure:
    trial: int
    messages: tuple
    states: tuple  # JSON dumps of the states involved


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    n: int
    trials: int
    seed: object
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary_line(self) -> str:
        status = "PASS" if self.passed else f"FAIL ({len(self.failures)} of {self.trials} trials)"
        return f"{status} {self.suite} n={self.n} trials={self.trials} seed={self.seed}"


# ---------------------------------------------------------------------------
# instance generators
# ---------------------------------------------------------------------------


def _haar(n: int, rng) -> StateVector:
    return random_state(n, rng)


def _scramble(psi: StateVector, rng) -> StateVector:
    return apply_local(psi, LocalUnitary.random(psi.n, rng))


def _random_pairing(n: int, rng):
    order = [int(q) + 1 for q in rng.permutation(n)]
    pairs = [(order[2 * i], order[2 * i + 1]) for i in range(n // 2)]
    lone = order[-1] if n % 2 else None
    return pairs, lone


def _random_pair_positions(n: int, rng):
    l, lp = sorted(int(q) + 1 for q in rng.choice(n, size=2, replace=False))
    return l, lp


def _rest_positions(n: int, used) -> tuple:
    return tuple(p for p in range(1, n + 1) if p not in used)


def _pair_product(n: int, rng, l: int, lp: int, mode: str = FLOAT) -> StateVector:
    """Canonical pair on (l, lp) tensored with a random state on the rest."""
    placements = [((l, lp), canonical_pair_state(mode=mode))]
    rest = _rest_positions(n, {l, lp})
    if rest:
        if mode == EXACT:
            filler = random_rational_state(len(rest), rng)
        else:
            filler = _haar(len(rest), rng)
        placements.append((rest, filler))
    return embed_product(n, placements)


def _partial_pair_state(n: int, rng, l: int, lp: int) -> StateVector:
    """alpha|00> + beta|11> on (l, lp), |alpha| and |beta| clearly different."""
    theta = rng.uniform(0.15, math.pi / 4 - 0.15)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=2))
    chi = StateVector(
        [math.cos(theta) * phases[0], 0.0, 0.0, math.sin(theta) * phases[1]],
        mode=FLOAT,
    )
    placements = [((l, lp), chi)]
    rest = _rest_positions(n, {l, lp})
    if rest:
        placements.append((rest, _haar(len(rest), rng)))
    return embed_product(n, placements)


def _unentangled_product(n: int, rng, positions) -> StateVector:
    """Independent single-qubit states on ``positions``, one random state on the rest."""
    placements = [((p,), _haar(1, rng)) for p in positions]
    rest = _rest_positions(n, set(positions))
    if rest:
        placements.append((rest, _haar(len(rest), rng)))
    return embed_product(n, placements)


def _scrambled_singlet_product(n: int, rng) -> StateVector:
    pairs, lone = _random_pairing(n, rng)
    return _scramble(singlet_product(n, pairs, lone), rng)


def _mixed_pool(n: int, rng) -> StateVector:
    """A state drawn from the structured + generic instance families."""
    kind = int(rng.integers(4))
    if kind == 0 and n >= 2:
        return _scrambled_singlet_product(n, rng)
    if kind == 1 and n >= 2:
        l, lp = _random_pair_positions(n, rng)
        return _scramble(_pair_product(n, rng, l, lp), rng)
    if kind == 2 and n >= 2:
        k = int(rng.integers(1, n + 1))
        positions = sorted(int(q) + 1 for q in rng.choice(n, size=k, replace=False))
        return _scramble(_unentangled_product(n, rng, positions), rng)
    return _haar(n, rng)


# ---------------------------------------------------------------------------
# independent evidence helpers
# ---------------------------------------------------------------------------


def _pair_factor_evidence(psi: StateVector, l: int, lp: int) -> tuple:
    """(product_across_cut, schmidt_balanced): the tangent-free factor oracle."""
    mat = _pair_rows(psi, l, lp)
    u, s, _ = np.linalg.svd(mat)
    is_product = len(s) < 2 or s[1] <= 1e-8 * s[0]
    chi = u[:, 0].reshape(2, 2)
    cs = np.linalg.svd(chi, compute_uv=False)
    balanced = abs(cs[0] - cs[1]) <= 1e-8
    return is_product, is_product and balanced


def _purity(psi: StateVector, j: int) -> float:
    """tr(rho_j^2) of the reduced single-qubit state; 1 iff unentangled."""
    n = psi.n
    shaped = psi.vector.reshape(1 << (j - 1), 2, 1 << (n - j))
    rho = np.einsum("aib,ajb->ij", shaped, shaped.conj())
    return float(np.real(np.trace(rho @ rho)))


def _column_dots_max(tm, first_indices, second_indices) -> float:
    worst = 0.0
    for a in first_indices:
        ca = tm.column(a)
        for b in second_indices:
            worst = max(worst, abs(float(real_dot(ca, tm.column(b)))))
    return worst


def _subset_floor(q: int) -> int:
    return (3 * q) // 2 + 1 if q % 2 == 0 else (3 * q + 1) // 2 + 1


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _suite_triplesprop(n, rng, tol):
    """Within every qubit's triple, the three columns are mutually orthogonal."""
    kind = int(rng.integers(3))
    if kind == 2:
        psi = random_rational_state(n, rng)
    elif kind == 1 and n >= 2:
        psi = _scrambled_singlet_product(n, rng)
    else:
        psi = _haar(n, rng)
    tm = tangent_matrix(psi)
    failures = []
    for k in range(1, n + 1):
        idx = tm.triple_indices(k)
        for a, b in combinations(idx, 2):
            dot = real_dot(tm.column(a), tm.column(b))
            if psi.mode == EXACT:
                if dot != 0:
                    failures.append(f"triple {k}: exact columns {a},{b} not orthogonal ({dot})")
            elif abs(float(dot)) > ORTHO_TOL:
                failures.append(f"triple {k}: columns {a},{b} have dot {float(dot):.3e}")
    return failures, [psi]


def _suite_ranktripluinv(n, rng, tol):
    """Every triple-union span (with or without the last column) is LU-invariant."""
    psi = _mixed_pool(n, rng)
    scrambled = _scramble(psi, rng)
    tm_a, tm_b = tangent_matrix(psi), tangent_matrix(scrambled)
    failures = []
    for size in range(1, n + 1):
        for subset in combinations(range(1, n + 1), size):
            for include_last in (False, True):
                da = span_dim(tm_a, subset, include_last, tol=tol)
                db = span_dim(tm_b, subset, include_last, tol=tol)
                if da != db:
                    failures.append(
                        f"span of triples {subset} (last={include_last}) changed "
                        f"under a local unitary: {da} -> {db}"
                    )
    return failures, [psi, scrambled]


def _suite_twocommonstrong(n, rng, tol):
    """On canonical pair products the z/x columns of the pair coincide, the y
    columns are opposite, the pair spans 3 dimensions, and that span is
    orthogonal to every other column including the last."""
    l, lp = _random_pair_positions(n, rng)
    exact = bool(rng.integers(2))
    psi = _pair_product(n, rng, l, lp, mode=EXACT if exact else FLOAT)
    tm = tangent_matrix(psi)
    failures = []

    def _close(u, v, flip=False):
        if exact:
            return all((a == (-b if flip else b)) for a, b in zip(u, v))
        vv = -np.asarray(v) if flip else np.asarray(v)
        return bool(np.allclose(np.asarray(u), vv, atol=1e-12, rtol=0.0))

    if not _close(apply_z(psi, l), apply_z(psi, lp)):
        failures.append("z-generator columns of the paired qubits differ")
    if not _close(apply_x(psi, l), apply_x(psi, lp)):
        failures.append("x-generator columns of the paired qubits differ")
    if not _close(apply_y(psi, l), apply_y(psi, lp), flip=True):
        failures.append("y-generator columns of the paired qubits are not opposite")
    span = span_dim(tm, (l, lp), tol=tol)
    if span != 3:
        failures.append(f"pair ({l},{lp}) spans {span} dimensions, expected 3")
    pair_cols = list(tm.triple_indices(l)) + list(tm.triple_indices(lp))
    other_cols = [
        c
        for k in range(1, n + 1)
        if k not in (l, lp)
        for c in tm.triple_indices(k)
    ] + [tm.last_index]
    if exact:
        for a in pair_cols:
            ca = tm.column(a)
            for b in other_cols:
                if real_dot(ca, tm.column(b)) != 0:
                    failures.append(f"exact columns {a},{b} not orthogonal")
    else:
        worst = _column_dots_max(tm, pair_cols, other_cols)
        if worst > ORTHO_TOL:
            failures.append(f"pair span leaks onto other columns (dot {worst:.3e})")
    return failures, [psi]


def _suite_twocommonstronggen(n, rng, tol):
    """Any LU image of a pair product keeps the 3-dimensional pair span and its
    orthogonality to all remaining columns."""
    l, lp = _random_pair_positions(n, rng)
    psi = _scramble(_pair_product(n, rng, l, lp), rng)
    tm = tangent_matrix(psi)
    failures = []
    span = span_dim(tm, (l, lp), tol=tol)
    if span != 3:
        failures.append(f"pair ({l},{lp}) spans {span} dimensions, expected 3")
    pair_cols = list(tm.triple_indices(l)) + list(tm.triple_indices(lp))
    other_cols = [
        c for k in range(1, n + 1) if k not in (l, lp) for c in tm.triple_indices(k)
    ] + [tm.last_index]
    worst = _column_dots_max(tm, pair_cols, other_cols)
    if worst > ORTHO_TOL:
        failures.append(f"pair span leaks onto other columns (dot {worst:.3e})")
    return failures, [psi]


def _suite_twotripspan5(n, rng, tol):
    """Whenever a pair of triples spans five dimensions, each triple holds at
    least two directions orthogonal to everything else, and the two triples'
    complements are jointly at least four-dimensional."""
    l, lp = _random_pair_positions(n, rng)
    if rng.integers(2):
        psi = _scramble(_partial_pair_state(n, rng, l, lp), rng)
    else:
        psi = _scramble(_unentangled_product(n, rng, (l, lp)), rng)
    tm = tangent_matrix(psi)
    failures = []
    span = span_dim(tm, (l, lp), tol=tol)
    if span != 5:
        failures.append(f"pair ({l},{lp}) spans {span} dimensions, expected 5")
    others = ColumnSelector(
        (k for k in range(1, n + 1) if k not in (l, lp)), include_last=True
    )
    dims = {}
    bases = []
    for k in (l, lp):
        dims[k] = complement_dim(tm, k, others, tol=tol)
        if dims[k] < 2:
            failures.append(
                f"complement of triple {k} against the other columns is {dims[k]}-dimensional"
            )
        bases.append(complement_basis(tm, k, others, tol=tol))
    stacked = np.hstack(bases)
    joint = int(np.count_nonzero(np.linalg.svd(stacked, compute_uv=False) > 1e-8))
    if joint < 4:
        failures.append(f"the two complements are jointly {joint}-dimensional, expected >= 4")
    return failures, [psi]


def _suite_minrankMstrong(n, rng, tol):
    """Every union of q triples plus the last column spans at least
    3q/2 + 1 (q even) or (3q+1)/2 + 1 (q odd) dimensions."""
    psi = _mixed_pool(n, rng)
    tm = tangent_matrix(psi)
    failures = []
    for q in range(1, n + 1):
        floor = _subset_floor(q)
        for subset in combinations(range(1, n + 1), q):
            got = span_dim(tm, subset, include_last=True, tol=tol)
            if got < floor:
                failures.append(
                    f"triples {subset} plus last span {got} < floor {floor}"
                )
    return failures, [psi]


def _suite_bipartiteranksadd(n, rng, tol):
    """Orbit dimensions add across tensor products, and each factor's spans are
    reproduced verbatim inside the product's tangent matrix."""
    lo = max(1, n - 3)
    hi = min(3, n - 1)
    n1 = int(rng.integers(lo, hi + 1))
    n2 = n - n1

    def _factor(m):
        if m >= 2 and rng.integers(2):
            return _scrambled_singlet_product(m, rng)
        return _haar(m, rng)

    psi1, psi2 = _factor(n1), _factor(n2)
    product = tensor(psi1, psi2)
    tm1, tm2, tm = tangent_matrix(psi1), tangent_matrix(psi2), tangent_matrix(product)
    failures = []
    d1, d2 = orbit_dimension(tm1, tol=tol), orbit_dimension(tm2, tol=tol)
    d = orbit_dimension(tm, tol=tol)
    if d != d1 + d2:
        failures.append(f"orbit dimensions do not add: {d} != {d1} + {d2}")
    block1 = tuple(range(1, n1 + 1))
    block2 = tuple(range(n1 + 1, n + 1))
    for block, tm_factor, label in ((block1, tm1, 1), (block2, tm2, 2)):
        inside = span_dim(tm, block, include_last=True, tol=tol)
        alone = span_dim(tm_factor, range(1, tm_factor.n + 1), include_last=True, tol=tol)
        if inside != alone:
            failures.append(
                f"factor {label} triples plus last span {inside} in the product "
                f"but {alone} alone"
            )
    size = int(rng.integers(1, n1 + 1))
    subset = tuple(sorted(int(q) + 1 for q in rng.choice(n1, size=size, replace=False)))
    inside = span_dim(tm, subset, include_last=False, tol=tol)
    alone = span_dim(tm1, subset, include_last=False, tol=tol)
    if inside != alone:
        failures.append(
            f"triples {subset} of factor 1 span {inside} in the product but {alone} alone"
        )
    return failures, [psi1, psi2]


def _suite_twotripspan3factors(n, rng, tol):
    """A pair of triples spans exactly three dimensions precisely when the two
    qubits carry a maximally entangled factor of the state (checked against a
    Schmidt-coefficient oracle that never looks at the tangent matrix)."""
    kind = int(rng.integers(3))
    failures = []
    if kind == 0:
        l, lp = _random_pair_positions(n, rng)
        psi = _scramble(_pair_product(n, rng, l, lp), rng)
        tm = tangent_matrix(psi)
        span = span_dim(tm, (l, lp), tol=tol)
        if span != 3:
            failures.append(f"pair ({l},{lp}) spans {span}, expected 3")
        is_product, balanced = _pair_factor_evidence(psi, l, lp)
        if not (is_product and balanced):
            failures.append(
                f"oracle disagrees: product={is_product}, balanced={balanced}"
            )
    elif kind == 1:
        l, lp = _random_pair_positions(n, rng)
        psi = _scramble(_partial_pair_state(n, rng, l, lp), rng)
        tm = tangent_matrix(psi)
        span = span_dim(tm, (l, lp), tol=tol)
        if span == 3:
            failures.append(f"unbalanced pair ({l},{lp}) wrongly spans 3")
        _, balanced = _pair_factor_evidence(psi, l, lp)
        if balanced:
            failures.append("oracle wrongly calls the unbalanced pair maximally entangled")
    else:
        psi = _haar(n, rng)
        tm = tangent_matrix(psi)
        for l in range(1, n + 1):
            for lp in range(l + 1, n + 1):
                span3 = span_dim(tm, (l, lp), tol=tol) == 3
                is_product, balanced = _pair_factor_evidence(psi, l, lp)
                if span3 != (is_product and balanced):
                    failures.append(
                        f"pair ({l},{lp}): span-3 is {span3} but oracle says "
                        f"product={is_product}, balanced={balanced}"
                    )
        return failures, [psi]
    return failures, [psi]


def _suite_trippluslonelyspan3(n, rng, tol):
    """A qubit's triple plus the last column spans three dimensions exactly when
    the qubit is unentangled (checked against reduced-state purity)."""
    failures = []
    if rng.integers(2) and n >= 1:
        j = int(rng.integers(1, n + 1))
        psi = _scramble(_unentangled_product(n, rng, (j,)), rng)
        tm = tangent_matrix(psi)
        span = span_dim(tm, (j,), include_last=True, tol=tol)
        if span != 3:
            failures.append(f"unentangled qubit {j} has triple+last span {span}")
        if abs(_purity(psi, j) - 1.0) > PURITY_TOL:
            failures.append(f"construction failed: qubit {j} purity {_purity(psi, j)}")
    else:
        psi = _haar(n, rng)
        tm = tangent_matrix(psi)
        for j in range(1, n + 1):
            span3 = span_dim(tm, (j,), include_last=True, tol=tol) == 3
            pure = _purity(psi, j) > 1.0 - PURITY_TOL
            if span3 != pure:
                failures.append(
                    f"qubit {j}: triple+last span-3 is {span3} but purity says {pure}"
                )
    return failures, [psi]


def _suite_unentrank(n, rng, tol):
    """k unentangled qubits contribute a (2k+1)-dimensional span (their triples
    plus the last column), no matter what the rest of the state does."""
    k = int(rng.integers(1, n + 1))
    positions = tuple(sorted(int(q) + 1 for q in rng.choice(n, size=k, replace=False)))
    psi = _scramble(_unentangled_product(n, rng, positions), rng)
    tm = tangent_matrix(psi)
    got = span_dim(tm, positions, include_last=True, tol=tol)
    failures = []
    if got != 2 * k + 1:
        failures.append(f"{k} unentangled qubits {positions} span {got}, expected {2 * k + 1}")
    return failures, [psi]


def _suite_pair_span_trichotomy(n, rng, tol):
    """Every pair of triples spans exactly 3, 5, or 6 real dimensions."""
    psi = _mixed_pool(n, rng)
    tm = tangent_matrix(psi)
    failures = []
    for l in range(1, n + 1):
        for lp in range(l + 1, n + 1):
            span = span_dim(tm, (l, lp), tol=tol)
            if span not in (3, 5, 6):
                failures.append(f"pair ({l},{lp}) spans {span}, outside {{3, 5, 6}}")
    return failures, [psi]


def _suite_minorbclassthm_roundtrip(n, rng, tol):
    """Classification recovers the exact pairing a scrambled pair product was
    built from, and generic states classify as not minimal."""
    failures = []
    if n >= 2 and int(rng.integers(4)) == 3:
        psi = _haar(n, rng)
        outcome = classify_min_orbit(psi, tol=tol)
        if not isinstance(outcome, NotMinimal):
            failures.append("a generic random state classified as minimal")
        return failures, [psi]
    pairs, lone = _random_pairing(n, rng)
    psi = _scramble(singlet_product(n, pairs, lone), rng)
    expected = SingletPairing(n=n, pairs=frozenset(pairs), lone=lone)
    outcome = classify_min_orbit(psi, tol=tol)
    if isinstance(outcome, NotMinimal):
        failures.append(
            f"scrambled pair product classified as not minimal "
            f"(orbit dimension {outcome.orbit_dimension})"
        )
    elif not pairing_equal(outcome, expected):
        failures.append(
            f"recovered pairing {outcome.to_json_dict()} != planted {expected.to_json_dict()}"
        )
    return failures, [psi]


#: suite name -> (trial function, smallest supported n, largest supported n or None)
SUITES: dict = {
    "triplesprop": (_suite_triplesprop, 1, None),
    "ranktripluinv": (_suite_ranktripluinv, 1, None),
    "twocommonstrong": (_suite_twocommonstrong, 2, None),
    "twocommonstronggen": (_suite_twocommonstronggen, 2, None),
    "twotripspan5": (_suite_twotripspan5, 2, None),
    "minrankMstrong": (_suite_minrankMstrong, 1, None),
    "bipartiteranksadd": (_suite_bipartiteranksadd, 2, 6),
    "twotripspan3factors": (_suite_twotripspan3factors, 2, None),
    "trippluslonelyspan3": (_suite_trippluslonelyspan3, 1, None),
    "unentrank": (_suite_unentrank, 1, None),
    "pair_span_trichotomy": (_suite_pair_span_trichotomy, 2, None),
    "minorbclassthm_roundtrip": (_suite_minorbclassthm_roundtrip, 1, None),
}


def verify_proposition(
    name: str,
    n: int,
    trials: int,
    seed,
    tol: float = DEFAULT_TOL,
) -> SuiteReport:
    """Run one registered suite for ``trials`` seeded instances.

    Unknown suite names raise ValueError.  Each trial gets its own child
    seed, so reports are reproducible from (name, n, trials, seed).
    """
    if name not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise ValueError(f"unknown suite {name!r}; registered suites: {known}")
    fn, min_n, max_n = SUITES[name]
    if n < min_n:
        raise ValueError(f"suite {name!r} needs at least {min_n} qubits")
    if max_n is not None and n > max_n:
        raise ValueError(f"suite {name!r} supports at most {max_n} qubits")
    if trials < 1:
        raise ValueError("trials must be positive")
    root = np.random.SeedSequence(seed)
    failures = []
    for trial, child in enumerate(root.spawn(trials)):
        rng = np.random.default_rng(child)
        messages, states = fn(n, rng, tol)
        if messages:
            failures.append(
                TrialFailure(
                    trial=trial,
                    messages=tuple(messages),
                    states=tuple(s.to_json_dict() for s in states),
                )
            )
    return SuiteReport(
        suite=name, n=n, trials=trials, seed=seed, failures=tuple(failures)
    )
