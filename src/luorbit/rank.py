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
tall as it is wide, and the first floating rank query builds
``real = Q R`` with Q orthonormal and R of size (3n+1) x (3n+1)
(``TangentMatrix.r_factor``).  R is streamed from the state by
tall-skinny QR (``lie_action.streamed_r``): Householder QR of each row
block, then of the stacked block Rs.  Each step is backward stable, so
R is the exact R of a matrix within c * eps * |real| of the real view,
c a modest factor that grows with the height 2**(n+1) (Demmel, Grigori,
Hoemmen and Langou, SIAM J. Sci. Comput. 34 (2012)).  Any column subset
of ``real`` thus has the singular values of the same columns of R to
within c * eps * s[0] (Weyl); nothing is squared, so no precision is
lost.

One rule reads every floating verdict at n >= 4: reported ones
(``real_rank``, ``real_ranks``, the tables of ``orbit_report``) and bare
ranks (``span_dims``) alike, for the full selection and for proper
subsets, of full rank or deficient.  With s the singular values of the
selection's R slice, k the number strictly above the cutoff
``tol * s[0]`` and M = ``GAP_WARNING_THRESHOLD``, R certifies k when

* k = 0 or s[k-1] > M times the cutoff (the kept side's margin), and
* k = len(s), or tol >= M * eps and s[k] lies under both the cutoff / M
  (the dropped side's margin) and the rounding floor
  ``ROUNDING_FLOOR * s[0]``.

A certified verdict is read from the slice.  Any other comes from the
selection's columns of the real view, as a direct SVD gives it, and is
kept in ``tm.ranks``.  The rule holds while rounding stays under the gap
between the cutoff / M and the cutoff, (1 - 1/M) times the cutoff: a
value above M times the cutoff cannot then fall to it, nor a value under
the cutoff / M rise past it, so the real view keeps the same k values.
On the dropped side rounding may use nearly the whole cutoff, not just
the cutoff / M.  tol >= M * eps keeps that room above (M - 1) * eps *
s[0], so c may grow to about M; below it the cutoff sits within rounding
of zero, and R certifies only full rank.

The contract this gives, against a direct SVD of the selection's
columns of the real view: the same rank, always; singular values within
the rounding floor; and the same gap ratio once the floor applies to
both.  A dropped value under the floor is indistinguishable from zero,
so a gap ratio over it is reported as inf (JSON null), unless the ratio
itself is under M and flags the verdict.  A certified deficient verdict
has a ratio above M**2 (both margins) and a dropped value under the
floor, so it reports inf, as the real view does wherever its own dropped
value lies under the floor.  Singular values are not bit-identical to
the direct route's: R's dropped values are rounding noise, and the noise
changes with the block order and the BLAS thread count.  The floor keeps
that noise out of every printed gap ratio.

``real_ranks`` and ``span_dims`` answer a family widest selection first.
Removing columns can only raise the smallest singular value and lower the
largest (interlacing for column submatrices; R. C. Thompson, Linear
Algebra Appl. 5 (1972) 1-12).  So once a selection is certified as full
column rank with the kept side's margin, every selection inside it
clears the same margin, and gets its column count with no SVD.  It draws
on the rounding budget of the rule above, not a new one: the interlacing
is exact on R, and its slices differ from the real view's columns by the
same c * eps * s[0].  The selections of one width that remain share one
stacked SVD of their R slices (LAPACK decomposes each matrix of a stack
as it would alone).  ``real_ranks`` keeps every verdict it reads from R;
``span_dims`` returns a rank it reads from R for a proper subset bare,
kept nowhere.  Float n <= 3, and the exact backend, answer each query with
``real_rank``'s verdict: no exact caller asks for selections that lie
inside one another.

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
``GAP_WARNING_THRESHOLD``, ``ROUNDING_FLOOR`` and ``check_tol`` come from
``tolerance``, which also records where this policy stops holding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Optional

import numpy as np

from .lie_action import TangentMatrix, _triple_columns, streamed_r
from .states import EXACT, FLOAT
from .tolerance import DEFAULT_TOL, EPS, GAP_WARNING_THRESHOLD, ROUNDING_FLOOR, check_tol


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
    the verdict was read from.  A verdict certified from the columns of
    ``TangentMatrix.r_factor`` carries the singular values of that R
    slice: its rank equals the direct one on the real view, its gap ratio
    equals it under the rounding floor's rule, and its singular values
    agree with it to within the floor (module docstring).  A rank that
    ``real_ranks`` inherits from a wider selection carries none.
    ``gap_ratio`` is inf when nothing is dropped or the largest dropped
    value is indistinguishable from zero; JSON output writes inf as null.
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
    if len(singular_values) == 0:
        return 0
    cut = tol * singular_values[0]
    return int(sum(v > cut for v in singular_values))


def _gap_ratio(s, rank: int) -> float:
    """Smallest kept over largest dropped value of ``s``, of which ``rank`` are kept.

    inf when nothing is dropped, and when the largest dropped value lies
    under the rounding floor (``ROUNDING_FLOOR`` times the largest value)
    without flagging the verdict (module docstring).
    """
    if rank >= len(s):
        return math.inf
    if rank == 0:
        return 0.0
    kept, dropped = s[rank - 1], s[rank]
    if dropped < ROUNDING_FLOOR * s[0] and kept >= GAP_WARNING_THRESHOLD * dropped:
        return math.inf
    return float(kept / dropped)


def _float_rank(view: np.ndarray, tol: float, s: Optional[list] = None) -> RankResult:
    """Verdict from the singular values ``s`` of ``view`` (a list), computed here unless given."""
    if s is None:
        s = np.linalg.svd(view, compute_uv=False).tolist()
    rank = retained_rank(s, tol)
    return RankResult(
        rank=rank,
        gap_ratio=_gap_ratio(s, rank),
        backend=FLOAT,
        singular_values=tuple(s),
    )


# ---------------------------------------------------------------------------
# exact elimination
# ---------------------------------------------------------------------------


def _bareiss_rank(mat: list) -> int:
    """Rank of a matrix of Python ints, given as row lists, by fraction-free elimination.

    Every division is exact, so the arithmetic stays in the integers and
    the verdict carries no tolerance at all.  ``mat`` is eliminated in
    place.
    """
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


def _exact_rank(mat: list) -> RankResult:
    rank = _bareiss_rank(mat)
    return RankResult(rank=rank, gap_ratio=math.inf, backend=EXACT, singular_values=None)


_INT64_MAX = int(np.iinfo(np.int64).max)


def exact_gram(tm: TangentMatrix) -> np.ndarray:
    """``tm.gram``, the integer Gram ``real.T @ real`` of an exact matrix, built on first use.

    Its rows are also kept as lists, ``tm.gram_rows``, which ``_gram_block`` slices.
    """
    if tm.mode != EXACT:
        raise ValueError("exact_gram requires the exact backend")
    if tm.gram is None:
        gram = _int64_gram(tm.real)
        if gram is None:
            gram = tm.real.T @ tm.real
        gram.flags.writeable = False
        object.__setattr__(tm, "gram", gram)
        object.__setattr__(tm, "gram_rows", gram.tolist())
    return tm.gram


def _gram_block(tm: TangentMatrix, rows, cols) -> list:
    """Entries (i, j) of the exact Gram, i in ``rows`` and j in ``cols``, as fresh row lists."""
    exact_gram(tm)
    return [[row[j] for j in cols] for row in map(tm.gram_rows.__getitem__, rows)]


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
        if tm.mode == FLOAT and _reads_r(tm):
            return _answer(tm, [selector], tol, keep=True)[0][1]
        cols = selector.column_indices(tm.n)
        if tm.mode == FLOAT:
            result = _float_rank(tm.real[:, list(cols)], tol)
        else:
            result = _exact_rank(_gram_block(tm, cols, cols))
        tm.ranks[key] = result
    return result


def _reads_r(tm: TangentMatrix) -> bool:
    """Whether floating rank verdicts read R: the real view is at least twice as tall as wide."""
    return 1 << (tm.n + 1) >= 2 * tm.column_count


def _r_factor(tm: TangentMatrix) -> np.ndarray:
    """``tm.r_factor``, R streamed from the state (``lie_action.streamed_r``) on first use."""
    if tm.r_factor is None:
        object.__setattr__(tm, "r_factor", streamed_r(tm))
    return tm.r_factor


def _clears_margin(s, tol: float) -> bool:
    """Whether the smallest of ``s`` lies above ``GAP_WARNING_THRESHOLD`` times the cutoff."""
    return s[-1] > GAP_WARNING_THRESHOLD * tol * s[0]


def _certified_rank(s: list, tol: float) -> Optional[int]:
    """The rank an R slice with singular values ``s`` certifies, or None (module docstring)."""
    if _clears_margin(s, tol):
        return len(s)
    if tol < GAP_WARNING_THRESHOLD * EPS:
        return None
    rank = retained_rank(s, tol)
    cut = tol * s[0]
    # at rank == len(s), s[-1] failed the margin above, so kept is False and s[rank] unread
    kept = rank == 0 or s[rank - 1] > GAP_WARNING_THRESHOLD * cut
    floor = min(cut / GAP_WARNING_THRESHOLD, ROUNDING_FLOOR * s[0])
    return rank if kept and s[rank] < floor else None


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

    The ranks of ``real_ranks``' verdicts on the family.  A rank read from
    R for a proper subset, or inherited, is returned bare and kept nowhere.
    """
    return [rank for rank, _ in _family(tm, list(selectors), tol, keep=False)]


def real_ranks(
    tm: TangentMatrix, selectors: Iterable[ColumnSelector], tol: float = DEFAULT_TOL
) -> list:
    """``real_rank``'s verdict on each selector, in the caller's order, kept in ``tm.ranks``.

    A floating matrix with n >= 4 answers the family widest selection
    first.  A selection inside one already certified as full column rank
    inherits its column count with no decomposition: its verdict has gap
    ratio inf, no singular values, and is not kept.  The rest of each
    width share one stacked SVD of their R slices, and each verdict is
    read from its slice wherever R certifies it, from the real view
    otherwise (module docstring).  An exact matrix, or a floating one with
    n <= 3, answers each query alone.  Kept verdicts are read first; every
    other query is checked, in order, before any is answered, so a bad
    selector or tol raises what ``real_rank`` raises.
    """
    return [
        RankResult(rank=rank, gap_ratio=math.inf, backend=FLOAT) if verdict is None else verdict
        for rank, verdict in _family(tm, list(selectors), tol, keep=True)
    ]


def _family(tm: TangentMatrix, selectors: list, tol: float, keep: bool) -> list:
    """``(rank, verdict)`` of each selector; verdict None where only the rank is known.

    An R-read verdict on a proper subset is made and kept only when ``keep``.
    """
    known = [tm.ranks.get((sel, tol)) for sel in selectors]
    if all(result is not None for result in known):
        return [(result.rank, result) for result in known]
    for sel, result in zip(selectors, known):
        if result is None:  # a kept verdict passed these checks when it was made
            _check_query(sel, tol)
            triples = sel.triples
            if triples and (min(triples) < 1 or max(triples) > tm.n):
                sel.column_indices(tm.n)  # raises for the first triple out of range
    if tm.mode == EXACT or not _reads_r(tm):
        return [(result.rank, result) for result in (_verdict(tm, sel, tol) for sel in selectors)]
    return _widest_first(tm, selectors, known, tol, keep)


def _widest_first(tm: TangentMatrix, selectors: list, known: list, tol: float, keep: bool) -> list:
    """``(rank, verdict)`` of each selection, widest first, inheriting full column rank downward.

    ``known`` holds each selection's verdict from ``tm.ranks``, or None.
    """
    answers = [None if result is None else (result.rank, result) for result in known]
    widths = [3 * len(sel.triples) + sel.include_last for sel in selectors]
    widest_first = sorted(range(len(selectors)), key=widths.__getitem__, reverse=True)
    certified = []  # masks of wider selections certified as full column rank
    for width, group in groupby(widest_first, key=widths.__getitem__):
        todo = []
        newly = []  # selections of this width certified as full column rank
        for i in group:
            if known[i] is not None:
                if _certifies(known[i], width, tol):
                    newly.append(i)
            elif certified and _inside(_mask(selectors[i]), certified):
                answers[i] = (width, None)
            else:
                todo.append(i)
        if todo:
            full = width == tm.column_count
            for i, (rank, verdict, certifies) in zip(
                todo, _answer(tm, [selectors[i] for i in todo], tol, keep or full)
            ):
                answers[i] = (rank, verdict)
                if certifies:
                    newly.append(i)
        if width > widths[widest_first[-1]]:  # narrower selections follow
            certified += [_mask(selectors[i]) for i in newly]
    return answers


def _mask(selector: ColumnSelector) -> int:
    """Bit k for triple k, bit 0 for the last column: a subset of columns is a subset of bits."""
    return sum(map((1).__lshift__, selector.triples)) | selector.include_last


def _inside(mask: int, certified: list) -> bool:
    """Whether the selection ``mask`` lies inside one of the ``certified`` selections."""
    return any(not mask & ~c for c in certified)


def _certifies(result: RankResult, width: int, tol: float) -> bool:
    """Whether a verdict on ``width`` columns certifies them as full column rank for inheritance."""
    return result.rank == width and _clears_margin(result.singular_values, tol)


def _answer(tm: TangentMatrix, sels: list, tol: float, keep: bool) -> list:
    """``(rank, verdict, certifies)`` of ``sels``, selections of one width.

    One stacked SVD of their R slices.  A rank R certifies is read from
    its slice; its verdict is made and kept in ``tm.ranks`` only when
    ``keep``, and is None otherwise.  Every other selection gets the
    verdict of its columns of the real view, kept.  ``certifies`` tells
    whether the selection is certified as full column rank.
    """
    cols = np.array([sel.column_indices(tm.n) for sel in sels])
    slices = _r_factor(tm)[:, cols].transpose(1, 0, 2)
    stacked = np.linalg.svd(slices, compute_uv=False).tolist()
    out = []
    for sel, c, r_slice, s in zip(sels, cols, slices, stacked):
        rank = _certified_rank(s, tol)
        if rank is None:
            verdict = _float_rank(tm.real[:, c], tol)
            tm.ranks[(sel, tol)] = verdict
            out.append((verdict.rank, verdict, _certifies(verdict, len(s), tol)))
            continue
        verdict = None
        if keep:
            verdict = _float_rank(r_slice, tol, s)
            tm.ranks[(sel, tol)] = verdict
        # R certifies full column rank only past the kept side's margin
        out.append((rank, verdict, rank == len(s)))
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
    cross = _gram_block(tm, against.column_indices(tm.n), tm.triple_indices(inside))
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
