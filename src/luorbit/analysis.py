"""Orbit dimensions, singlet-pair detection, and minimal-state classification.

A state's orbit under the local unitary group SU(2)^n has dimension equal
to the real rank of its tangent matrix minus one.  The smallest value that
dimension can take is 3n/2 for even n and (3n+1)/2 for odd n, and the
states achieving it are exactly the products of two-qubit maximally
entangled pairs (plus one unentangled qubit when n is odd).  The pairing —
which qubits are paired with which — is a complete local-unitary invariant
for such states, and this module recovers it from span dimensions alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

from .lie_action import TangentMatrix, tangent_matrix
from .rank import (
    DEFAULT_TOL,
    GAP_WARNING_THRESHOLD,
    ColumnSelector,
    RankResult,
    real_rank,
    span_dim,
)
from .states import (
    StateVector,
    ZeroResidualError,
    canonical_pair_state,
    contract_pair,
    embed_product,
)


class NotMinimalError(ValueError):
    """Raised when an operation requires a minimum-orbit-dimension state."""


class NonCanonicalFactorError(ValueError):
    """The state is LU-equivalent to a canonical pair product but not equal to one."""


class InconsistentStructureError(RuntimeError):
    """Span diagnostics contradict each other; a tolerance failure, never a verdict."""


def _as_tangent(psi: Union[StateVector, TangentMatrix]) -> TangentMatrix:
    if isinstance(psi, TangentMatrix):
        return psi
    return tangent_matrix(psi)


def min_orbit_dimension(n: int) -> int:
    """Smallest orbit dimension any n-qubit pure state can have."""
    if n < 1:
        raise ValueError("qubit count must be at least 1")
    return (3 * n) // 2 if n % 2 == 0 else (3 * n + 1) // 2


def orbit_dimension(psi: Union[StateVector, TangentMatrix], tol: float = DEFAULT_TOL) -> int:
    """Dimension of the state's local-unitary orbit (tangent rank minus one)."""
    return real_rank(_as_tangent(psi), tol=tol).rank - 1


@dataclass(frozen=True)
class MinimalityResult:
    """Verdict plus the numbers behind it; truthy exactly when minimal."""

    is_minimal: bool
    orbit_dimension: int
    min_orbit_dimension: int
    rank: RankResult

    def __bool__(self) -> bool:
        return self.is_minimal


def is_minimum_orbit(
    psi: Union[StateVector, TangentMatrix], tol: float = DEFAULT_TOL
) -> MinimalityResult:
    """Whether the state's orbit dimension meets the minimum for its qubit count."""
    tm = _as_tangent(psi)
    result = real_rank(tm, tol=tol)
    dim = result.rank - 1
    floor = min_orbit_dimension(tm.n)
    return MinimalityResult(
        is_minimal=dim == floor,
        orbit_dimension=dim,
        min_orbit_dimension=floor,
        rank=result,
    )


def detect_singlet_pairs(
    psi: Union[StateVector, TangentMatrix], tol: float = DEFAULT_TOL
) -> tuple:
    """Qubit pairs (l, l') whose two triples span only three real dimensions.

    Such a pair marks a maximally entangled two-qubit factor.  Pairs are
    returned sorted, each as (l, l') with l < l'.
    """
    tm = _as_tangent(psi)
    found = []
    for l in range(1, tm.n + 1):
        for lp in range(l + 1, tm.n + 1):
            if span_dim(tm, (l, lp), include_last=False, tol=tol) == 3:
                found.append((l, lp))
    return tuple(found)


def detect_unentangled(
    psi: Union[StateVector, TangentMatrix], tol: float = DEFAULT_TOL
) -> tuple:
    """Qubits whose triple plus the last column spans only three dimensions.

    A qubit passes exactly when it is unentangled with the rest of the
    state.  Returned sorted ascending.
    """
    tm = _as_tangent(psi)
    return tuple(
        j
        for j in range(1, tm.n + 1)
        if span_dim(tm, (j,), include_last=True, tol=tol) == 3
    )


@dataclass(frozen=True)
class SingletPairing:
    """A perfect pairing of qubits into maximally entangled two-qubit factors.

    For odd n exactly one qubit is left unpaired (``lone``); for even n
    ``lone`` is None.
    """

    n: int
    pairs: frozenset
    lone: Optional[int] = None

    def __post_init__(self):
        normalized = frozenset(
            (min(a, b), max(a, b)) for a, b in self.pairs
        )
        object.__setattr__(self, "pairs", normalized)
        covered: set = set()
        for a, b in normalized:
            if a == b or a in covered or b in covered:
                raise ValueError("pairs must be disjoint two-element sets")
            covered.update((a, b))
        if self.lone is not None:
            if self.lone in covered:
                raise ValueError("lone qubit collides with a pair")
            covered.add(self.lone)
        if covered != set(range(1, self.n + 1)):
            raise ValueError("pairing must cover qubits 1..n exactly")

    @property
    def sorted_pairs(self) -> tuple:
        return tuple(sorted(self.pairs))

    def to_json_dict(self) -> dict:
        return {
            "pairs": [list(p) for p in self.sorted_pairs],
            "lone": self.lone,
        }


@dataclass(frozen=True)
class NotMinimal:
    """Classification outcome for states above the minimum orbit dimension."""

    orbit_dimension: int
    min_orbit_dimension: int
    gap_ratio: float = math.inf

    def to_json_dict(self) -> dict:
        return {"not_minimal": True, "orbit_dimension": self.orbit_dimension}


def pairing_equal(a: SingletPairing, b: SingletPairing) -> bool:
    """Whether two pairings of the same qubit count are identical."""
    if a.n != b.n:
        raise ValueError(f"pairings cover different qubit counts ({a.n} vs {b.n})")
    return a.pairs == b.pairs and a.lone == b.lone


def classify_min_orbit(
    psi: Union[StateVector, TangentMatrix], tol: float = DEFAULT_TOL
) -> Union[SingletPairing, NotMinimal]:
    """Classify a state by its singlet pairing, if it has minimal orbit dimension.

    Returns NotMinimal for states above the floor.  For minimal states the
    detected pairs must tile the qubits (with one left over when n is odd,
    cross-checked against the unentangled-qubit detector); any disagreement
    raises InconsistentStructureError rather than guessing.
    """
    tm = _as_tangent(psi)
    verdict = is_minimum_orbit(tm, tol=tol)
    if not verdict:
        return NotMinimal(
            orbit_dimension=verdict.orbit_dimension,
            min_orbit_dimension=verdict.min_orbit_dimension,
            gap_ratio=verdict.rank.gap_ratio,
        )
    n = tm.n
    pairs = detect_singlet_pairs(tm, tol=tol)
    covered: set = set()
    for a, b in pairs:
        if a in covered or b in covered:
            raise InconsistentStructureError(
                f"state looks minimal but its detected pairs overlap: {pairs}"
            )
        covered.update((a, b))
    remaining = set(range(1, n + 1)) - covered
    if n % 2 == 0:
        if remaining:
            raise InconsistentStructureError(
                f"state looks minimal but qubits {sorted(remaining)} are unpaired"
            )
        lone = None
    else:
        if len(remaining) != 1:
            raise InconsistentStructureError(
                f"state looks minimal but pair coverage leaves {sorted(remaining)}"
            )
        lone = remaining.pop()
    unentangled = set(detect_unentangled(tm, tol=tol))
    expected = {lone} if lone is not None else set()
    if unentangled != expected:
        raise InconsistentStructureError(
            "pair coverage and the unentangled-qubit detector disagree: "
            f"coverage implies {sorted(expected)}, detector found {sorted(unentangled)}"
        )
    return SingletPairing(n=n, pairs=frozenset(pairs), lone=lone)


# ---------------------------------------------------------------------------
# factor extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Factorization:
    """Pair factors (in extraction order) and the leftover one-qubit residual."""

    n: int
    pairs: tuple
    pair_factors: tuple
    lone: Optional[int] = None
    residual: Optional[StateVector] = None

    @property
    def placements(self) -> list:
        out = [(pair, factor) for pair, factor in zip(self.pairs, self.pair_factors)]
        if self.lone is not None:
            out.append(((self.lone,), self.residual))
        return out


def factor_state(psi: StateVector, tol: float = DEFAULT_TOL) -> Factorization:
    """Split a minimal state into canonical pair factors and a lone residual.

    Classifies the state once, then contracts its pairs in sorted order
    against the canonical pair state.  The input must actually be a
    product of canonical pair states (up to a global phase, with anything
    allowed on the lone qubit); merely LU-equivalent states raise
    NonCanonicalFactorError.  Re-tensoring the returned factors reproduces
    the input up to phase.
    """
    pairing = classify_min_orbit(tangent_matrix(psi), tol=tol)
    if isinstance(pairing, NotMinimal):
        raise NotMinimalError(
            f"orbit dimension {pairing.orbit_dimension} exceeds the minimum "
            f"{pairing.min_orbit_dimension}; only minimal states factor into pairs"
        )
    pairs = pairing.sorted_pairs
    labels = list(range(1, psi.n + 1))
    current = psi
    for a, b in pairs:
        l, lp = labels.index(a) + 1, labels.index(b) + 1
        try:
            current = contract_pair(current, l, lp)
        except ZeroResidualError as exc:
            raise NonCanonicalFactorError(str(exc)) from exc
        labels.remove(a)
        labels.remove(b)
    result = Factorization(
        n=psi.n,
        pairs=pairs,
        pair_factors=(canonical_pair_state(mode=psi.mode),) * len(pairs),
        lone=pairing.lone,
        residual=current if pairing.lone is not None else None,
    )
    rebuilt = embed_product(psi.n, result.placements)
    # proportional_to ignores tol in exact mode
    if not rebuilt.proportional_to(psi, tol=max(tol, 1e-8)):
        raise NonCanonicalFactorError(
            "contracted factors do not reassemble to the input state; "
            "it is LU-equivalent to a canonical pair product but not equal to one"
        )
    return result


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitReport:
    """Everything the analyzer knows about one state."""

    n: int
    rank: int
    orbit_dimension: int
    min_orbit_dimension: int
    is_minimal: bool
    pair_span: tuple
    lone_span: tuple
    pairing: Optional[SingletPairing]
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "rank": self.rank,
            "orbit_dimension": self.orbit_dimension,
            "min_orbit_dimension": self.min_orbit_dimension,
            "is_minimal": self.is_minimal,
            "pair_span": [list(row) for row in self.pair_span],
            "lone_span": list(self.lone_span),
            "pairing": self.pairing.to_json_dict() if self.pairing else None,
            "diagnostics": _json_safe(self.diagnostics),
        }


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and math.isinf(value):
        return None
    return value


def orbit_report(psi: StateVector, tol: float = DEFAULT_TOL) -> OrbitReport:
    """Compute ranks, span tables, minimality, and (when minimal) the pairing."""
    tm = tangent_matrix(psi)
    n = tm.n
    full = real_rank(tm, tol=tol)
    dim = full.rank - 1
    floor = min_orbit_dimension(n)
    warnings: list = []
    gap_ratios = [full.gap_ratio]

    pair_span = [[3] * n for _ in range(n)]
    for l in range(1, n + 1):
        for lp in range(l + 1, n + 1):
            result = real_rank(tm, ColumnSelector((l, lp)), tol=tol)
            pair_span[l - 1][lp - 1] = pair_span[lp - 1][l - 1] = result.rank
            gap_ratios.append(result.gap_ratio)
    lone_span = []
    for j in range(1, n + 1):
        result = real_rank(tm, ColumnSelector((j,), include_last=True), tol=tol)
        lone_span.append(result.rank)
        gap_ratios.append(result.gap_ratio)

    worst_gap = min(gap_ratios)
    if worst_gap < GAP_WARNING_THRESHOLD:
        warnings.append(
            f"smallest singular-value gap ratio {worst_gap:.3g} is below "
            f"{GAP_WARNING_THRESHOLD:g}; rank verdicts may be unstable"
        )

    pairing = None
    diagnostics = {
        "backend": tm.mode,
        "tol": tol,
        "gap_ratio_full": full.gap_ratio,
        "gap_ratio_min": worst_gap,
        "warnings": warnings,
    }
    if dim == floor:
        try:
            pairing = classify_min_orbit(tm, tol=tol)
        except InconsistentStructureError as exc:
            diagnostics["pairing_error"] = str(exc)
    return OrbitReport(
        n=n,
        rank=full.rank,
        orbit_dimension=dim,
        min_orbit_dimension=floor,
        is_minimal=dim == floor,
        pair_span=tuple(tuple(row) for row in pair_span),
        lone_span=tuple(lone_span),
        pairing=pairing,
        diagnostics=diagnostics,
    )
