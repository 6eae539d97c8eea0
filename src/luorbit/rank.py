"""Real-rank queries over tangent-matrix column selections.

Two interchangeable backends:

* floating — numpy SVD; singular values are retained when strictly
  above ``tol`` times the largest one (ties at the cutoff are discarded,
  so verdicts are deterministic), and the ratio of the smallest retained
  to the largest discarded value is reported so callers can recognize
  ill-conditioned verdicts;
* exact — fraction-free (Bareiss) integer elimination on the integer
  Gram of the real view, whose denominators ``tangent_matrix`` cleared
  once per state; tolerance-free.

The exact backend builds ``G = real.T @ real`` once per state
(``TangentMatrix.gram``, ``exact_gram``), at most (3n+1) x (3n+1), and
answers every query from it.  Over the rationals rank(A^T A) = rank(A)
for any real A: A^T A x = 0 gives |A x|^2 = x^T A^T A x = 0, so both
have the kernel of A.  Applied to A = ``real[:, S]``, whose Gram is the
principal submatrix ``G[S, S]``, the rank of any column subset S is
that of ``G[S, S]``; the arithmetic is exact, so squaring loses nothing
(it is only in floating point that a Gram squares the noise floor).
Exact complements rank the cross block ``G[against, inside]``.  G is an
int64 matmul when ``rows * max|real|**2 <= 2**63 - 1``: every partial
sum of an entry is at most that in magnitude, so none can overflow.
Otherwise it is a matmul of Python ints; either way it holds Python
ints, and elimination runs on them.

The floating backend for n <= 3 slices the columns it needs out of
``TangentMatrix.real``.  For n >= 4 the real view is at least twice as
tall as it is wide, and the first floating rank query factors it once,
``real = Q R`` with Q orthonormal and R of size (3n+1) x (3n+1)
(``TangentMatrix.r_factor``).  Any column subset of
``real`` then has the singular values of the same columns of R, up to
rounding at the 1e-16 level; nothing is squared, so no precision is lost.

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
* ``span_dims`` (and ``span_dim``, its one-selector case) needs only the
  rank, so it also reads deficient ranks from R.  With s the singular
  values of the R slice, k the number strictly above the cutoff
  ``tol * s[0]`` and M = ``GAP_WARNING_THRESHOLD``, k is certified when
  both margins hold: k = 0 or s[k-1] > M times the cutoff, and k = len(s)
  or s[k] < the cutoff / M, the second only when tol >= M * eps.  The R
  slice and the real view's columns differ by rounding, in the QR and in
  each SVD, that moves every singular value by at most c * eps * s[0]
  (Weyl), with c a modest factor that grows with the height 2**(n+1).
  The verdict holds while that stays under the gap between the cutoff / M
  and the cutoff, (1 - 1/M) times the cutoff: a value above M times the
  cutoff cannot then fall to it, nor a value under the cutoff / M rise
  past it, so the direct SVD of the real view keeps the same k values.
  On the dropped side rounding may thus use nearly the whole cutoff, not
  just the cutoff / M.  tol >= M * eps keeps that room above (M - 1) *
  eps * s[0], so c may grow to about M; below it the cutoff sits within
  rounding of zero, and a deficient rank is left to ``real_rank``.  A
  rank read this way is returned and kept nowhere, so no reported
  verdict, singular value or gap ratio comes from it; when a margin
  fails, the query gets ``real_rank``'s verdict on the real view,
  memoized in ``tm.ranks`` as usual.  The previous bullet's rule is the
  case k = len(s).
* ``span_dims`` answers a family widest selection first.  Removing
  columns can only raise the smallest singular value and lower the
  largest (interlacing for column submatrices; R. C. Thompson, Linear
  Algebra Appl. 5 (1972) 1-12).  So once a selection is certified as full
  column rank with the kept side's margin, every selection inside it
  clears the same margin, and gets its column count with no SVD.  It
  draws on the rounding budget of the full-rank rule above, not a new
  one: the interlacing is exact on R, and its slices differ from the real
  view's columns by the same c * eps * s[0].  The selections of one width
  that remain share one stacked SVD of their R slices (LAPACK decomposes
  each matrix of a stack as it would alone); a full-width selection gets
  ``real_rank``'s verdict from R itself.  Float n <= 3, and the exact
  backend, answer each query with ``real_rank``'s verdict: no exact
  caller asks for selections that lie inside one another.

Float complements (``complement_dim``, ``complement_basis``) read R at
every n (R is square for n >= 1): its columns have the inner products of
the real view's.  An SVD of the ``against`` columns of R gives an
orthonormal basis of their span (same relative cutoff as a verdict), and
the triple's columns of R are projected onto it.  One qubit's z, y and x
actions are orthonormal on a unit-norm state, so the triple needs no QR,
and the projection's singular values are cosines in [0, 1]: their cutoff
is the absolute ``s > tol``.  The right singular vectors at or below it
are the complement's coefficients in the triple's columns of the real view.

``tol`` must be finite and lie in [eps, 1) with eps the float64 machine
epsilon (``check_tol``): below eps the cutoff sits under rounding noise,
and at 1 or above it discards every singular value.  ``DEFAULT_TOL``,
``GAP_WARNING_THRESHOLD`` and ``check_tol`` come from ``tolerance``, which
also records where this policy stops holding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Optional

import numpy as np

from .lie_action import TangentMatrix, _triple_columns
from .states import EXACT, FLOAT
from .tolerance import DEFAULT_TOL, EPS, GAP_WARNING_THRESHOLD, check_tol


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
        cols = [c for k in sorted(self.triples) for c in _triple_columns(k, n)]
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
        singular_values=tuple(s.tolist()),
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


_INT64_MAX = int(np.iinfo(np.int64).max)


def exact_gram(tm: TangentMatrix) -> np.ndarray:
    """``tm.gram``, the integer Gram ``real.T @ real`` of an exact matrix, built on first use."""
    if tm.mode != EXACT:
        raise ValueError("exact_gram requires the exact backend")
    if tm.gram is None:
        gram = _int64_gram(tm.real)
        if gram is None:
            gram = tm.real.T @ tm.real
        gram.flags.writeable = False
        object.__setattr__(tm, "gram", gram)
    return tm.gram


def _int64_gram(real: np.ndarray) -> Optional[np.ndarray]:
    """``real.T @ real`` as Python ints via an int64 matmul; None if a sum could overflow.

    Each partial sum of an entry is at most ``rows * max|real|**2`` in magnitude.
    """
    try:
        ints = real.astype(np.int64)
    except OverflowError:
        return None
    peak = max(int(ints.max()), -int(ints.min()))
    if real.shape[0] * peak * peak > _INT64_MAX:
        return None
    return (ints.T @ ints).astype(object)


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
    _check_query(selector, tol)
    return _verdict(tm, selector, tol)


def _check_query(selector: ColumnSelector, tol: float) -> None:
    """The checks every rank query makes first; ``column_indices`` then checks the qubit range."""
    if selector.is_empty:
        raise ValueError("rank of an empty column selection is undefined")
    check_tol(tol)


def _verdict(tm: TangentMatrix, selector: ColumnSelector, tol: float) -> RankResult:
    """``real_rank``'s verdict on a checked query, kept in ``tm.ranks``."""
    key = (selector, tol)
    result = tm.ranks.get(key)
    if result is None:
        cols = list(selector.column_indices(tm.n))
        if tm.mode == FLOAT:
            result = _float_verdict(tm, cols, tol)
        else:
            result = _exact_rank(exact_gram(tm)[np.ix_(cols, cols)])
        tm.ranks[key] = result
    return result


def _reads_r(tm: TangentMatrix) -> bool:
    """Whether floating rank verdicts read R: the real view is at least twice as tall as wide."""
    rows, width = tm.real.shape
    return rows >= 2 * width


def _r_factor(tm: TangentMatrix) -> np.ndarray:
    """``tm.r_factor``, the Householder R of ``tm.real``, computed on first use."""
    if tm.r_factor is None:
        object.__setattr__(tm, "r_factor", np.linalg.qr(tm.real, mode="r"))
    return tm.r_factor


def _clears_margin(s, tol: float) -> bool:
    """Whether the smallest of ``s`` lies above ``GAP_WARNING_THRESHOLD`` times the cutoff."""
    return s[-1] > GAP_WARNING_THRESHOLD * tol * s[0]


def _float_verdict(tm: TangentMatrix, cols: list, tol: float) -> RankResult:
    """Floating verdict on ``cols``, from R where that is safe (module docstring)."""
    if not _reads_r(tm):
        return _float_rank(tm.real[:, cols], tol)
    r = _r_factor(tm)
    if len(cols) == r.shape[1]:
        return _float_rank(r, tol)
    r_slice = r[:, cols]
    s = np.linalg.svd(r_slice, compute_uv=False)
    if _clears_margin(s, tol):
        return _float_rank(r_slice, tol, s)
    return _float_rank(tm.real[:, cols], tol)


def _certified_rank(s: list, tol: float) -> Optional[int]:
    """The rank an R slice with singular values ``s`` certifies, or None (module docstring)."""
    if _clears_margin(s, tol):
        return len(s)
    if tol < GAP_WARNING_THRESHOLD * EPS:
        return None
    cut = tol * s[0]
    rank = sum(v > cut for v in s)
    # at rank == len(s), s[-1] failed the margin above, so kept is False and s[rank] unread
    kept = rank == 0 or s[rank - 1] > GAP_WARNING_THRESHOLD * tol * s[0]
    return rank if kept and s[rank] < cut / GAP_WARNING_THRESHOLD else None


def span_dim(
    tm: TangentMatrix,
    triples: Iterable[int],
    include_last: bool = False,
    tol: float = DEFAULT_TOL,
) -> int:
    """Dimension of the real span of the selected triples (plus last column).

    ``span_dims`` of the one selector.
    """
    return span_dims(tm, [ColumnSelector(triples, include_last)], tol)[0]


def span_dims(
    tm: TangentMatrix, selectors: Iterable[ColumnSelector], tol: float = DEFAULT_TOL
) -> list:
    """``real_rank``'s rank of each selector, in the caller's order.

    A floating matrix with n >= 4 answers the family widest selection
    first.  A selection inside one already certified as full column rank
    gets its column count with no decomposition; the rest of each width
    share one stacked SVD of their R slices, and a rank is read from R
    alone wherever R certifies it (module docstring).  An exact matrix,
    or a floating one with n <= 3, answers each query with ``real_rank``'s
    verdict.  Kept verdicts are read first; every other query is checked,
    in order, before any is answered, so a bad selector or tol raises
    what ``real_rank`` raises.
    """
    selectors = list(selectors)
    known = [tm.ranks.get((sel, tol)) for sel in selectors]
    if all(result is not None for result in known):
        return [result.rank for result in known]
    for sel, result in zip(selectors, known):
        if result is None:  # a kept verdict passed these checks when it was made
            _check_query(sel, tol)
            triples = sel.triples
            if triples and (min(triples) < 1 or max(triples) > tm.n):
                sel.column_indices(tm.n)  # raises for the first triple out of range
    if tm.mode == EXACT or not _reads_r(tm):
        return [_verdict(tm, sel, tol).rank for sel in selectors]
    return _widest_first(tm, selectors, known, tol)


def _widest_first(tm: TangentMatrix, selectors: list, known: list, tol: float) -> list:
    """Rank of each selection, widest first, inheriting full column rank downward.

    ``known`` holds each selection's verdict from ``tm.ranks``, or None.
    """
    ranks = [0] * len(selectors)
    widths = [3 * len(sel.triples) + sel.include_last for sel in selectors]
    widest_first = sorted(range(len(selectors)), key=widths.__getitem__, reverse=True)
    certified = []  # masks of wider selections certified as full column rank
    for width, group in groupby(widest_first, key=widths.__getitem__):
        todo = []
        newly = []  # selections of this width certified as full column rank
        for i in group:
            if known[i] is not None:
                ranks[i] = known[i].rank
                if _certifies(known[i], width, tol):
                    newly.append(i)
            elif certified and _inside(_mask(selectors[i]), certified):
                ranks[i] = width
            else:
                todo.append(i)
        answers = _answer(tm, [selectors[i] for i in todo], width, tol) if todo else []
        for i, (rank, certifies) in zip(todo, answers):
            ranks[i] = rank
            if certifies:
                newly.append(i)
        if width > widths[widest_first[-1]]:  # narrower selections follow
            certified += [_mask(selectors[i]) for i in newly]
    return ranks


def _mask(selector: ColumnSelector) -> int:
    """Bit k for triple k, bit 0 for the last column: a subset of columns is a subset of bits."""
    return sum(map((1).__lshift__, selector.triples)) | selector.include_last


def _inside(mask: int, certified: list) -> bool:
    """Whether the selection ``mask`` lies inside one of the ``certified`` selections."""
    return any(not mask & ~c for c in certified)


def _certifies(result: RankResult, width: int, tol: float) -> bool:
    """Whether a verdict on ``width`` columns certifies them as full column rank for inheritance."""
    return result.rank == width and _clears_margin(result.singular_values, tol)


def _answer(tm: TangentMatrix, sels: list, width: int, tol: float) -> list:
    """(rank, certifies) for each of ``sels``, selections of ``width`` columns.

    Proper subsets share one stacked SVD of their R slices; the full
    selection, and every selection R does not certify, get ``real_rank``'s
    verdict.
    """
    if width == tm.column_count:
        results = [_verdict(tm, sel, tol) for sel in sels]
        return [(res.rank, _certifies(res, width, tol)) for res in results]
    cols = [list(sel.column_indices(tm.n)) for sel in sels]
    r = _r_factor(tm)
    s = np.linalg.svd(r[:, cols].transpose(1, 0, 2), compute_uv=False)
    out = []
    for sel, c, values in zip(sels, cols, s.tolist()):
        rank = _certified_rank(values, tol)
        if rank is None:
            result = _float_rank(tm.real[:, c], tol)
            tm.ranks[(sel, tol)] = result
            out.append((result.rank, _certifies(result, width, tol)))
        else:
            out.append((rank, rank == width))
    return out


def complement_dim(
    tm: TangentMatrix,
    inside: int,
    against: ColumnSelector,
    tol: float = DEFAULT_TOL,
) -> int:
    """Dimension of the part of triple ``inside``'s span orthogonal to ``against``.

    3 minus the rank of the projection of the triple's orthonormal columns
    onto the ``against`` span.  Floating mode reads it from R, with an
    absolute cutoff since the projection's singular values are cosines in
    [0, 1] (module docstring); exact mode ranks the cross block of the
    integer Gram, ``G[against, inside]``.
    """
    check_tol(tol)
    if inside in against.triples:
        raise ValueError(f"triple {inside} may not appear in the 'against' selection")
    if against.is_empty:
        return 3
    if tm.mode == FLOAT:
        return len(_complement_coeffs(tm, inside, against, tol))
    cross = exact_gram(tm)[np.ix_(against.column_indices(tm.n), tm.triple_indices(inside))]
    return 3 - _bareiss_rank(cross)


def _complement_coeffs(
    tm: TangentMatrix, inside: int, against: ColumnSelector, tol: float
) -> np.ndarray:
    """d x 3 rows C: ``tm.real[:, triple] @ C.T`` spans the complement; reads only R."""
    r = _r_factor(tm)
    u, s, _ = np.linalg.svd(r[:, list(against.column_indices(tm.n))], full_matrices=False)
    projected = u[:, s > tol * s[0]].T @ r[:, list(tm.triple_indices(inside))]
    _, s, vt = np.linalg.svd(projected)
    return vt[np.count_nonzero(s > tol) :]


def complement_basis(
    tm: TangentMatrix,
    inside: int,
    against: ColumnSelector,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Orthonormal basis (columns) of the complement measured by complement_dim.

    It has ``complement_dim`` columns: combinations of the triple's
    orthonormal columns of the real view, with coefficients read from R
    (module docstring).

    Floating backend only; used by the verification suites to check that
    complements drawn from different triples are jointly independent.
    """
    check_tol(tol)
    if tm.mode != FLOAT:
        raise ValueError("complement_basis requires the floating backend")
    if inside in against.triples:
        raise ValueError(f"triple {inside} may not appear in the 'against' selection")
    coeffs = np.eye(3) if against.is_empty else _complement_coeffs(tm, inside, against, tol)
    return tm.real[:, list(tm.triple_indices(inside))] @ coeffs.T
