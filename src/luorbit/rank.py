"""Real-rank queries over tangent-matrix column selections.

Two interchangeable backends:

* floating — numpy SVD on the interleaved real view; singular values are
  retained when strictly above ``tol`` times the largest one (ties at the
  cutoff are discarded, so verdicts are deterministic), and the ratio of
  the smallest retained to the largest discarded value is reported so
  callers can recognize ill-conditioned verdicts;
* exact — fraction-free (Bareiss) integer elimination on the same real
  view after clearing denominators row by row; tolerance-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .lie_action import TangentMatrix, real_dot, real_view
from .states import EXACT, FLOAT

#: Default relative cutoff for the floating backend.
DEFAULT_TOL = 1e-10

#: Verdicts whose gap ratio falls below this are flagged as ill-conditioned.
GAP_WARNING_THRESHOLD = 1e3


@dataclass(frozen=True)
class ColumnSelector:
    """A subset of tangent-matrix columns: whole triples plus the last column."""

    triples: frozenset
    include_last: bool = False

    def __init__(self, triples: Iterable[int] = (), include_last: bool = False):
        object.__setattr__(self, "triples", frozenset(int(k) for k in triples))
        object.__setattr__(self, "include_last", bool(include_last))

    @classmethod
    def full(cls, n: int) -> "ColumnSelector":
        return cls(range(1, n + 1), include_last=True)

    @property
    def is_empty(self) -> bool:
        return not self.triples and not self.include_last

    def column_indices(self, n: int) -> tuple:
        """Concrete column indices for an n-qubit tangent matrix."""
        for k in self.triples:
            if not 1 <= k <= n:
                raise ValueError(f"triple index {k} out of range 1..{n}")
        cols: list = []
        for k in sorted(self.triples):
            base = 3 * (k - 1)
            cols.extend((base, base + 1, base + 2))
        if self.include_last:
            cols.append(3 * n)
        return tuple(cols)


@dataclass(frozen=True)
class RankResult:
    """Verdict of one rank query."""

    rank: int
    gap_ratio: float
    backend: str
    singular_values: Optional[tuple] = None

    @property
    def ill_conditioned(self) -> bool:
        return self.gap_ratio < GAP_WARNING_THRESHOLD


def retained_rank(singular_values, tol: float) -> int:
    """Count singular values strictly above tol * sigma_max.

    A value exactly at the cutoff is discarded, resolving ties downward.
    """
    s = np.asarray(singular_values, dtype=np.float64)
    if s.size == 0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def _gap_ratio(s: np.ndarray, rank: int) -> float:
    if rank >= s.size:
        return math.inf
    if rank == 0:
        return 0.0
    largest_discarded = s[rank]
    if largest_discarded == 0.0:
        return math.inf
    return float(s[rank - 1] / largest_discarded)


def _float_rank(view: np.ndarray, tol: float) -> RankResult:
    s = np.linalg.svd(view, compute_uv=False)
    rank = retained_rank(s, tol)
    return RankResult(
        rank=rank,
        gap_ratio=_gap_ratio(s, rank),
        backend=FLOAT,
        singular_values=tuple(float(x) for x in s),
    )


# ---------------------------------------------------------------------------
# exact elimination
# ---------------------------------------------------------------------------


def _rows_to_int(rows) -> list:
    """Clear denominators row by row; row scaling does not change rank."""
    out = []
    for row in rows:
        lcd = 1
        for entry in row:
            lcd = lcd * entry.denominator // math.gcd(lcd, entry.denominator)
        out.append([int(entry * lcd) for entry in row])
    return out


def _bareiss_rank(rows: list) -> int:
    """Rank of an integer matrix by fraction-free elimination.

    Every division is exact, so the arithmetic stays in the integers and
    the verdict carries no tolerance at all.
    """
    mat = [row[:] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = None
        for i in range(rank, nrows):
            if mat[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pivot_val = mat[rank][col]
        for i in range(rank + 1, nrows):
            factor = mat[i][col]
            for j in range(col + 1, ncols):
                mat[i][j] = (pivot_val * mat[i][j] - factor * mat[rank][j]) // prev
            mat[i][col] = 0
        prev = pivot_val
        rank += 1
        if rank == nrows:
            break
    return rank


def _exact_rank(rows) -> RankResult:
    rank = _bareiss_rank(_rows_to_int(rows))
    return RankResult(rank=rank, gap_ratio=math.inf, backend=EXACT, singular_values=None)


# ---------------------------------------------------------------------------
# public queries
# ---------------------------------------------------------------------------


def real_rank(
    tm: TangentMatrix,
    selector: Optional[ColumnSelector] = None,
    tol: float = DEFAULT_TOL,
) -> RankResult:
    """Real rank of the selected tangent-matrix columns.

    ``selector=None`` selects the whole matrix.  The backend follows the
    matrix's numeric mode.  Each verdict is computed once per matrix and
    kept in ``tm.ranks``, so repeated queries within a report reuse it.
    """
    if selector is None:
        selector = ColumnSelector.full(tm.n)
    if selector.is_empty:
        raise ValueError("rank of an empty column selection is undefined")
    key = (selector, tol)
    result = tm.ranks.get(key)
    if result is None:
        view = real_view(tm.select(selector.column_indices(tm.n)))
        result = _float_rank(view, tol) if tm.mode == FLOAT else _exact_rank(view)
        tm.ranks[key] = result
    return result


def span_dim(
    tm: TangentMatrix,
    triples: Iterable[int],
    include_last: bool = False,
    tol: float = DEFAULT_TOL,
) -> int:
    """Dimension of the real span of the selected triples (plus last column)."""
    return real_rank(tm, ColumnSelector(triples, include_last), tol=tol).rank


def _orthonormal_inside(tm: TangentMatrix, inside: int) -> np.ndarray:
    view = real_view(tm.select(tm.triple_indices(inside)))
    q, _ = np.linalg.qr(view)
    return q


def complement_dim(
    tm: TangentMatrix,
    inside: int,
    against: ColumnSelector,
    tol: float = DEFAULT_TOL,
) -> int:
    """Dimension of the part of triple ``inside``'s span orthogonal to ``against``.

    Computed as 3 minus the rank of the projection of an orthonormal basis
    of the triple's span onto the span of the ``against`` columns.  The
    projection's singular values live in [0, 1], so the floating cutoff is
    absolute there rather than relative.
    """
    if inside in against.triples:
        raise ValueError(f"triple {inside} may not appear in the 'against' selection")
    if against.is_empty:
        return 3
    if tm.mode == FLOAT:
        projected = _project_inside(tm, inside, against, tol)
        s = np.linalg.svd(projected, compute_uv=False)
        return 3 - int(np.count_nonzero(s > tol))
    inside_cols = tm.select(tm.triple_indices(inside))
    against_cols = tm.select(against.column_indices(tm.n))
    gram = [[real_dot(a, t) for t in inside_cols] for a in against_cols]
    return 3 - _bareiss_rank(_rows_to_int(gram))


def _project_inside(
    tm: TangentMatrix, inside: int, against: ColumnSelector, tol: float
) -> np.ndarray:
    basis_inside = _orthonormal_inside(tm, inside)
    against_view = real_view(tm.select(against.column_indices(tm.n)))
    u, s, _ = np.linalg.svd(against_view, full_matrices=False)
    basis_against = u[:, s > tol * s[0]]
    return basis_against.T @ basis_inside


def complement_basis(
    tm: TangentMatrix,
    inside: int,
    against: ColumnSelector,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Orthonormal basis (columns) of the complement measured by complement_dim.

    Floating backend only; used by the verification suites to check that
    complements drawn from different triples are jointly independent.
    """
    if tm.mode != FLOAT:
        raise ValueError("complement_basis requires the floating backend")
    if inside in against.triples:
        raise ValueError(f"triple {inside} may not appear in the 'against' selection")
    basis_inside = _orthonormal_inside(tm, inside)
    if against.is_empty:
        return basis_inside
    projected = _project_inside(tm, inside, against, tol)
    _, s, vt = np.linalg.svd(projected, full_matrices=True)
    rank = int(np.count_nonzero(s > tol))
    coeffs = vt[rank:]
    return basis_inside @ coeffs.T
