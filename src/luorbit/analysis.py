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

import functools
import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Union

from .lie_action import TangentMatrix, tangent_matrix
from .rank import ColumnSelector, RankResult, SelectorFamily, real_rank, real_ranks, span_dims
from .states import (
    StateVector,
    ZeroResidualError,
    _check_pairing,
    _contract_pairs,
    canonical_pair_state,
)
from .tolerance import DEFAULT_TOL, GAP_WARNING_THRESHOLD, ORACLE_TOL


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


def _check_theorems(n: int, rank: int, tol: float, spans=()) -> None:
    """Raise ``InconsistentStructureError`` where verdicts contradict what holds for every state.

    Two theorems, read from verdicts already made.  The range theorem
    (Lyons and Walck): the orbit dimension, ``rank`` - 1, lies between
    ``min_orbit_dimension(n)`` and 3n, the most at n >= 3 (2 at n = 1, 5 at
    n = 2).  Containment: each of ``spans``, the rank of a pair's or lone
    qubit's selection, which lies inside the full one, is at most ``rank``.
    Each selection's cutoff is relative to its own largest singular value,
    so a tol too loose for the state can break either, and its verdicts are
    then a tolerance failure, never an answer.
    """
    dim, low, high = rank - 1, min_orbit_dimension(n), {1: 2, 2: 5}.get(n, 3 * n)
    if not low <= dim <= high:
        raise InconsistentStructureError(
            f"orbit dimension {dim} breaks the range theorem: every {n}-qubit state has "
            f"orbit dimension {low}..{high}; tol {tol:g} is unsound for this state"
        )
    over = max(spans, default=0)
    if over > rank:
        raise InconsistentStructureError(
            f"a pair or lone span of {over} exceeds the full rank {rank}, which contains it; "
            f"tol {tol:g} is unsound for this state"
        )


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
    pairs, selectors = _pair_selectors(tm.n)
    spans = span_dims(tm, selectors, tol)
    return tuple(pair for pair, span in zip(pairs, spans) if span == 3)


def detect_unentangled(
    psi: Union[StateVector, TangentMatrix], tol: float = DEFAULT_TOL
) -> tuple:
    """Qubits whose triple plus the last column spans only three dimensions.

    A qubit passes exactly when it is unentangled with the rest of the
    state.  Returned sorted ascending.
    """
    tm = _as_tangent(psi)
    spans = span_dims(tm, _lone_selectors(tm.n), tol)
    return tuple(j for j, span in enumerate(spans, start=1) if span == 3)


@functools.lru_cache(maxsize=None)
def _pair_selectors(n: int) -> tuple:
    """``(pairs, selectors)``: every qubit pair (l, l') of n qubits, sorted, and the family of their selectors.

    Built once per n: ``orbit_report`` and the detectors that its
    ``classify_min_orbit`` call runs after it share the keys of every pair
    verdict, so reading a kept verdict again builds nothing, and every
    walk of the family reads one plan (``rank.SelectorFamily``).
    """
    pairs = tuple(combinations(range(1, n + 1), 2))
    return pairs, SelectorFamily(ColumnSelector(p) for p in pairs)


@functools.lru_cache(maxsize=None)
def _lone_selectors(n: int) -> tuple:
    """The family of each qubit's triple with the last column, in qubit order; built once per n, as above."""
    return SelectorFamily(ColumnSelector((j,), include_last=True) for j in range(1, n + 1))


@dataclass(frozen=True)
class SingletPairing:
    """A perfect pairing of qubits into maximally entangled two-qubit factors.

    For odd n exactly one qubit is left unpaired (``lone``); for even n
    ``lone`` is None.  Validated by ``singlet_product``'s rule
    (``states._check_pairing``): two qubits a pair, every qubit an integer,
    and pairs plus lone qubit a partition of 1..n; otherwise ValueError.
    Pairs are stored sorted, and every qubit as the int that rule returns.
    """

    n: int
    pairs: frozenset
    lone: Optional[int] = None

    def __post_init__(self):
        pairs, lone = _check_pairing(self.n, self.pairs, self.lone)
        object.__setattr__(self, "pairs", frozenset(pairs))
        object.__setattr__(self, "lone", lone)

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

    Returns NotMinimal for states above the floor.  For a minimal state the
    detected pairs and the unentangled qubits (at most one: the lone qubit)
    must form a ``SingletPairing``, whose constructor checks that they tile
    1..n; a refusal there, and an orbit dimension outside the range
    theorem's (``_check_theorems``), raises InconsistentStructureError,
    naming what was detected, rather than guessing.
    """
    tm = _as_tangent(psi)
    verdict = is_minimum_orbit(tm, tol=tol)
    # the spans it reads below are 3s, which the range's floor keeps under the rank
    _check_theorems(tm.n, verdict.rank.rank, tol)
    if not verdict:
        return NotMinimal(
            orbit_dimension=verdict.orbit_dimension,
            min_orbit_dimension=verdict.min_orbit_dimension,
            gap_ratio=verdict.rank.gap_ratio,
        )
    pairs = detect_singlet_pairs(tm, tol=tol)
    unentangled = detect_unentangled(tm, tol=tol)
    try:
        if len(unentangled) > 1:
            raise ValueError("a pairing leaves at most one qubit unentangled")
        return SingletPairing(n=tm.n, pairs=pairs, lone=unentangled[0] if unentangled else None)
    except ValueError as exc:
        raise InconsistentStructureError(
            f"state looks minimal but its detected pairs {sorted(pairs)} and unentangled "
            f"qubits {sorted(unentangled)} form no pairing: {exc}"
        ) from exc


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

    Classifies the state once, then contracts it against the canonical
    pair state on every pair in one pass over its parts; with no pairs
    the residual is the state itself.  The input must actually be a
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
    try:
        # the reassembly test ignores tol in exact mode, as proportional_to does
        residual = _contract_pairs(psi, pairs, max(tol, ORACLE_TOL)) if pairs else psi
    except ZeroResidualError as exc:
        raise NonCanonicalFactorError(str(exc)) from exc
    if residual is None:
        raise NonCanonicalFactorError(
            "contracted factors do not reassemble to the input state; "
            "it is LU-equivalent to a canonical pair product but not equal to one"
        )
    return Factorization(
        n=psi.n,
        pairs=pairs,
        pair_factors=(canonical_pair_state(mode=psi.mode),) * len(pairs),
        lone=pairing.lone,
        residual=residual if pairing.lone is not None else None,
    )


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
    """Compute ranks, span tables, minimality, and (when minimal) the pairing.

    Raises ``InconsistentStructureError`` when the rank or the span tables
    break the range theorem or containment (``_check_theorems``).
    """
    tm = tangent_matrix(psi)
    n = tm.n
    full = real_rank(tm, tol=tol)
    dim = full.rank - 1
    floor = min_orbit_dimension(n)
    warnings: list = []
    gap_ratios = [full.gap_ratio]

    pairs, selectors = _pair_selectors(n)
    pair_span = [[3] * n for _ in range(n)]
    for (l, lp), result in zip(pairs, real_ranks(tm, selectors, tol)):
        pair_span[l - 1][lp - 1] = pair_span[lp - 1][l - 1] = result.rank
        gap_ratios.append(result.gap_ratio)
    lone_span = []
    for result in real_ranks(tm, _lone_selectors(n), tol):
        lone_span.append(result.rank)
        gap_ratios.append(result.gap_ratio)

    # the table's diagonal holds 3s, under every rank the range theorem allows
    _check_theorems(n, full.rank, tol, lone_span + [span for row in pair_span for span in row])
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
