"""Real-rank queries over tangent-matrix column selections.

Two interchangeable backends:

* floating — numpy SVD; singular values are retained when strictly
  above ``tol`` times the largest one (ties at the cutoff are discarded,
  so verdicts are deterministic), and the ratio of the smallest retained
  to the largest discarded value is reported so callers can recognize
  ill-conditioned verdicts;
* exact — fraction-free (Bareiss) integer elimination on the real view,
  whose denominators ``tangent_matrix`` cleared once per state;
  tolerance-free.

The exact backend, and the floating one for n <= 3, slice the columns
they need out of ``TangentMatrix.real``.  For n >= 4 the real view is at
least twice as tall as it is wide, and the first floating query factors
it once, ``real = Q R`` with Q orthonormal and R of size (3n+1) x (3n+1)
(``TangentMatrix.r_factor``).  Any column subset of ``real`` then has the
singular values of the same columns of R, up to rounding at the 1e-16
level; nothing is squared, so no precision is lost.

* The full selection is answered from R itself.  LAPACK's SVD of a
  matrix this tall starts with the same Householder QR, so the verdict,
  its singular values and its gap ratio are bit-identical to those of the
  real view.
* A proper subset is answered from its R columns when they have full
  column rank with the smallest singular value above
  ``GAP_WARNING_THRESHOLD * tol`` times the largest: rounding cannot move
  a value across a cutoff three orders of magnitude away, so the direct
  verdict (full rank, gap ratio inf) is the same.  Every other subset,
  rank-deficient or near the cutoff, falls back to its columns of the
  real view, so deficient verdicts and their gap ratios come from the
  same arithmetic as the direct route.

``tol`` must be finite and lie in [eps, 1) with eps the float64 machine
epsilon (``check_tol``): below eps the cutoff sits under rounding noise,
and at 1 or above it discards every singular value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .lie_action import TangentMatrix
from .states import EXACT, FLOAT

#: Default relative cutoff for the floating backend.
DEFAULT_TOL = 1e-10

#: Verdicts whose gap ratio falls below this are flagged as ill-conditioned.
GAP_WARNING_THRESHOLD = 1e3

_EPS = float(np.finfo(np.float64).eps)


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
    """Verdict of one rank query.

    ``singular_values`` (floating backend only) are those of the matrix
    the verdict was read from.  A proper subset certified from the columns
    of ``TangentMatrix.r_factor`` carries the singular values of that R
    slice: its rank and gap ratio equal the direct ones on the real view,
    its singular values agree with them only to rounding.
    """

    rank: int
    gap_ratio: float
    backend: str
    singular_values: Optional[tuple] = None

    @property
    def ill_conditioned(self) -> bool:
        return self.gap_ratio < GAP_WARNING_THRESHOLD


def check_tol(tol: float) -> None:
    """Raise ValueError unless ``tol`` is a finite relative cutoff in [eps, 1)."""
    if not (math.isfinite(tol) and _EPS <= tol < 1.0):
        raise ValueError(f"tol must be finite and in [eps, 1) with eps = {_EPS:g}; got {tol!r}")


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


def _float_rank(view: np.ndarray, tol: float, s: Optional[np.ndarray] = None) -> RankResult:
    """Verdict from the singular values ``s`` of ``view``, computed here unless given."""
    if s is None:
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


def _bareiss_rank(matrix: np.ndarray) -> int:
    """Rank of a matrix of Python ints by fraction-free elimination.

    Every division is exact, so the arithmetic stays in the integers and
    the verdict carries no tolerance at all.
    """
    mat = matrix.tolist()
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


def _exact_rank(view: np.ndarray) -> RankResult:
    rank = _bareiss_rank(view)
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
    check_tol(tol)
    key = (selector, tol)
    result = tm.ranks.get(key)
    if result is None:
        cols = list(selector.column_indices(tm.n))
        if tm.mode == FLOAT:
            result = _float_verdict(tm, cols, tol)
        else:
            result = _exact_rank(tm.real[:, cols])
        tm.ranks[key] = result
    return result


def _float_verdict(tm: TangentMatrix, cols: list, tol: float) -> RankResult:
    """Floating verdict on ``cols``, from R where that is safe (module docstring)."""
    rows, width = tm.real.shape
    if rows < 2 * width:
        return _float_rank(tm.real[:, cols], tol)
    if tm.r_factor is None:
        object.__setattr__(tm, "r_factor", np.linalg.qr(tm.real, mode="r"))
    if len(cols) == width:
        return _float_rank(tm.r_factor, tol)
    r_slice = tm.r_factor[:, cols]
    s = np.linalg.svd(r_slice, compute_uv=False)
    if s[-1] > GAP_WARNING_THRESHOLD * tol * s[0]:
        return _float_rank(r_slice, tol, s)
    return _float_rank(tm.real[:, cols], tol)


def span_dim(
    tm: TangentMatrix,
    triples: Iterable[int],
    include_last: bool = False,
    tol: float = DEFAULT_TOL,
) -> int:
    """Dimension of the real span of the selected triples (plus last column)."""
    return real_rank(tm, ColumnSelector(triples, include_last), tol=tol).rank


def _orthonormal_inside(tm: TangentMatrix, inside: int) -> np.ndarray:
    q, _ = np.linalg.qr(tm.real[:, list(tm.triple_indices(inside))])
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
    check_tol(tol)
    if inside in against.triples:
        raise ValueError(f"triple {inside} may not appear in the 'against' selection")
    if against.is_empty:
        return 3
    if tm.mode == FLOAT:
        projected = _project(tm, _orthonormal_inside(tm, inside), against, tol)
        s = np.linalg.svd(projected, compute_uv=False)
        return 3 - int(np.count_nonzero(s > tol))
    inside_view = tm.real[:, list(tm.triple_indices(inside))]
    against_view = tm.real[:, list(against.column_indices(tm.n))]
    return 3 - _bareiss_rank(against_view.T @ inside_view)


def _project(
    tm: TangentMatrix, basis_inside: np.ndarray, against: ColumnSelector, tol: float
) -> np.ndarray:
    """Coordinates of ``basis_inside`` in an orthonormal basis of the ``against`` span."""
    against_view = tm.real[:, list(against.column_indices(tm.n))]
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

    It has ``complement_dim`` columns, so a caller needing both the basis
    and the dimension factorizes once by calling this alone.

    Floating backend only; used by the verification suites to check that
    complements drawn from different triples are jointly independent.
    """
    check_tol(tol)
    if tm.mode != FLOAT:
        raise ValueError("complement_basis requires the floating backend")
    if inside in against.triples:
        raise ValueError(f"triple {inside} may not appear in the 'against' selection")
    basis_inside = _orthonormal_inside(tm, inside)
    if against.is_empty:
        return basis_inside
    projected = _project(tm, basis_inside, against, tol)
    _, s, vt = np.linalg.svd(projected, full_matrices=True)
    rank = int(np.count_nonzero(s > tol))
    coeffs = vt[rank:]
    return basis_inside @ coeffs.T
