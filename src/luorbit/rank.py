"""Real-rank queries over tangent-matrix column selections.

Two interchangeable backends:

* floating — numpy SVD; singular values are retained when strictly
  above ``tol`` times the largest one (ties at the cutoff are discarded,
  so verdicts are deterministic), and the ratio of the smallest retained
  to the largest discarded value is reported so callers can recognize
  ill-conditioned verdicts;
* exact — integer ranks on the integer Gram of the real view, whose
  entries are the state's integer parts over its common denominator:
  each width group's blocks in one array pass, then principal minors or
  fraction-free (Bareiss) elimination; tolerance-free.

The exact backend builds ``G = real.T @ real`` once per matrix
(``TangentMatrix.gram``, a (3n+1)-square array, the one Gram each
backend holds), and answers every query from it.  Over the rationals
rank(A^T A) = rank(A) for any real A: A^T A x = 0 gives |A x|^2 =
x^T A^T A x = 0, so both have the kernel of A.  Applied to
A = ``real[:, S]``, whose Gram is the principal submatrix ``G[S, S]``,
the rank of any column subset S is that of ``G[S, S]``; the arithmetic
is exact, so squaring loses nothing (it is only in floating point that
a Gram squares the noise floor).  Exact complements rank the cross
block C = ``G[against, inside]`` through its 3 x 3 Gram C^T C, by the
same identity, formed as a product of Python ints and ranked by its
principal minors (``_psd_rank3``).

Rows of the real view that are zero in every column add nothing to
A^T A, for A any selection of columns.  So G, and R below, are built
from the rows of the live codes alone (``lie_action.live_codes``: those
where the state is nonzero, and their single-bit flips); every other row
is zero.  G is the sum of ``block.T @ block`` over row blocks of those
rows, each generated from the state's parts in turn
(``lie_action._streamed_gram``); the real view itself is never built.
Every entry of the real view is a part up to sign, so the blocks and the
sum are int64 when every part fits in int64 and
``rows * max|part|**2 <= 2**63 - 1``, rows the real view's height: every
partial sum of an entry is at most that in magnitude, so none can
overflow.  Otherwise they hold Python ints.  The verify oracles that
read single entries index the same array.

A triple's z, y and x columns are mutually orthogonal: for distinct
Paulis P and Q on one qubit, PQ is +-i times a third Pauli, so
Re<iP psi|iQ psi> = Re<psi|PQ|psi> = 0.  Each has the squared norm s of
the state, the sum of the squared parts, and so has the last column.  So
``G[T, T] = s * I_3`` exactly for every triple T, and s > 0.  Eliminating
T's three pivots in closed form, a selection T + B has rank
3 + rank(s * G[B, B] - G[B, T] @ G[T, B]): the Schur complement of
``G[T, T]``, scaled by s.  Every exact verdict takes T as its
selection's first triple and ranks that (w-3)-square integer block, w
the selection's width: 3 x 3 for a pair, 1 x 1 for a lone triple with
the last column (s**2 - |G[last, T]|**2, the Bloch-length test), and
3n - 2 square for the full selection.  The last column alone has no
triple, and its block is s * G[last, last] = s**2.

``_answer`` ranks a width group's blocks in one pass (``_exact_ranks``):
one gather of every selection's G[B, B] and G[B, T], and one batched
product.  Each column's squared norm is s, so |G_ij| <= s by
Cauchy-Schwarz, and every entry of a block, and every partial sum of
one, is at most s**2 + 3 s**2 = 4 s**2 in magnitude.  While s <= 2**30
(``_INT64_SQUARED_NORM``) that is at most 2**62, and the blocks are
built in int64.  Past it (parts with many digits) the same gather and
product run on Python ints.  The tier is chosen by that bound on s,
whatever G's own dtype.  A 1 x 1 block is then ranked by a nonzero
test; a 3 x 3 one by its principal minors, in Python ints
(``_psd_rank3``: a symmetric matrix of rank k has a nonsingular k x k
principal submatrix and none larger); a wider one by elimination, its
entries read back as Python ints.

Every matrix the exact backend ranks is thus a symmetric positive
semidefinite Gram: s times a Schur complement of G, s**2, or C^T C.
``_psd_rank`` eliminates one wider than 3 x 3 on its diagonal and upper
triangle alone, and reads nothing else.  In a PSD matrix
|a_ij|**2 <= a_ii a_jj, so a zero diagonal entry has a zero row and
column, and every pivot can be taken on the diagonal.  Eliminating a
positive pivot leaves a positive multiple of a Schur complement, which
is PSD again, so a zero diagonal entry stays zero with its row and
column, and the rank is the number of nonzero pivots met in order.
After pivots P, each entry is a minor of the rows and columns P plus
its own (Sylvester's identity, as in Bareiss), whichever zero rows were
skipped, so every division stays exact.

At every n, the first floating rank query that a row sample (below)
does not answer builds ``real = Q R`` with Q orthonormal and R of size
(3n+1) x (3n+1) (``TangentMatrix.r_factor``), which the matrix then
holds for every later floating reader.
R is streamed from the state by tall-skinny QR
(``lie_action.streamed_r``): Householder QR of each row block of the
live codes' rows, then of the stacked block Rs, with zero rows added
when there are fewer live rows than columns.  The rows left out are
zero, so ``real.T @ real = R.T @ R`` in exact arithmetic, as if every
row were factored.  Each step is backward stable, so R is the exact R of
a matrix within c * eps * |real| of the real view, c a modest factor
that grows with the height factored, at most 2**(n+1) (Demmel, Grigori,
Hoemmen and Langou, SIAM J. Sci. Comput. 34 (2012)).  Any column
subset of ``real`` thus has the singular values of the same columns of R
to within c * eps * s[0] (Weyl); nothing is squared, so no precision is
lost.  When no amplitude is zero every row is live, and the streamed R
is the one that factoring every row gives, bit for bit.

R has a second route, for the states of the paper's theorem and their
like (``lie_action._product_r``).  When the live codes' rows fill more
than half a block (1024 rows), and psi lies within ``PRODUCT_RESIDUAL``
of c times a product of unit one- and two-qubit factors, R is the QR of
a matrix of 2 + sum over factors F of 2**(|F|+1) rows with the Gram of
that product's real view: 54 rows, not 16384, for six pairs and a lone
qubit at n = 13.  Past half a block that costs less than streaming;
at half a block or fewer, streaming costs less.  The factors are found
qubit by qubit: a qubit is alone when its 2 x 2 reduced Gram has rank
one, and else one partner is proposed in one pass over the state and
confirmed by the rank-one test of the pair's 4 x 4 reduced Gram, so a
state that is no product is refused after one pair test.  The same pass
gives c, where contracting psi with each factor in turn ends, and the
residual |psi - c * product|, from the part of each step's block
orthogonal to its factor; the product itself is never built.  The two
real views differ by at most sqrt(3n + 1) * ``PRODUCT_RESIDUAL`` in norm
(each column is a unitary acting on psi), and every selection's s[0] is
at least 1 (each column has psi's unit norm), so that route adds at
most sqrt(3n + 1) * ``PRODUCT_RESIDUAL`` / eps to c, about 153 at
n = 30, plus the rounding of the small QR.  The rule below reads both
routes' R alike.

A generic state needs no R for its verdicts: every selection has full
column rank.  So past ``lie_action._SAMPLE_PAST_ROWS`` live rows, a state
whose product split is refused first takes a row sample
(``TangentMatrix.sample_sigma``): sigma_S, the smallest singular value of
the real view's rows A_S at 128 fixed codes, by one SVD of those 256
rows.  For A the full selection's columns of the real view, A^T A =
A_S^T A_S plus the Gram of the other rows, which is positive
semidefinite, so sigma_min(A) >= sigma_S.  Each of the 3n + 1 columns of
A is a unitary acting on psi, so sigma_max(A) <= |A|_F = sqrt(3n + 1)
|psi|, and |psi| = 1 for a float state.  A narrower selection's
sigma_min is no smaller and its sigma_max no larger (interlacing, below).
Hence sigma_S > M * tol * sqrt(3n + 1) (``_sample_certifies``) proves
every selection of full column rank, past the kept side's margin of the
rule below: each keeps every value, drops none, and has gap ratio inf.
The rounding budget is the rule's own.  The sample's rows are the real
view's entries bit for bit, and its SVD is backward stable, so the
computed sigma_S lies within c' * eps * sqrt(3n + 1) of the exact one,
c' a modest factor for 256 rows (Weyl); |psi| is 1 to a few eps.  So
sigma_min(A) > (M * tol - c' * eps) * sqrt(3n + 1) >= (M - c') * tol *
sigma_max(A) for tol >= eps: the margin M leaves room for c' and for the
rounding c * eps * s[0] of R or of a direct SVD together, as it does on
R's route below.  Such a verdict is made without R (``_answer``), as
``RankResult(w, inf, FLOAT)`` with no singular values, and certifies its
selection for inheritance as an exact full-rank verdict does.  A state
the sample does not certify (any state short of full rank, or a tol too
loose: sigma_S <= sqrt(3n + 1) always, so at tol >= 1 / M none is
certified) reads R as before, and R still serves complements and the
float Gram.

A state short of full rank still has mostly narrow selections of full
column rank: every pair but the planted ones of a minimal state, every
lone qubit but its unentangled one.  R's Gram shows it with no SVD.  For
a proper subset S of at most two triples, with or without the last
column (``_GRAM_WIDTH``), asked in a group of at least ``_GRAM_GROUP``
such selections of one width, ``_gram_certifies`` bounds the eigenvalues of
G_S = R_S^T R_S, the squared singular values of R's slice, by
Gershgorin's discs of the computed Gram G' = R^T R
(``TangentMatrix.gram``, built once per matrix): lower = min over i in
S of G'_ii - sum over the other j in S of |G'_ij|, and upper = max of
G'_ii + the same sum, each then widened by the slack
4 (m + w) eps w max diag(G'), m = 3n + 1 and w the width.  Each entry
of G' is a dot product of two of R's columns of m entries, within
gamma_m |r_i| |r_j| <= gamma_m max diag(G) of the exact one,
gamma_m = m eps / (1 - m eps).  So the w x w error of the block has
norm at most w gamma_m max diag(G), its Frobenius bound, and it moves no
eigenvalue further (Weyl).  The discs' own sums and differences add
about (w + 1) eps w max diag(G'), and diag(G') is diag(G) to within
gamma_m; the factor 4 covers both, with room for the test's own
rounding.  Hence lower <= lambda_min(G_S) and upper >= lambda_max(G_S),
and lower > (M * tol)**2 * upper proves sigma_min(R_S) > M * tol *
sigma_max(R_S): the kept side's margin of the rule below, on R's slice
itself, not on its computed singular values.  The selection then has
the verdict R's rule would certify, rank w and gap ratio inf, with no
singular values; it is made, kept and inherited from as one the sample
certifies.  The Gram certifies nothing else: a selection it refuses (a
deficient pair, a near-pair, anything near the margin) takes R's route
below, so no deficient verdict and no gap ratio is ever read from a
squared spectrum.  At tol >= 1 / M it certifies nothing: lower <=
min diag(G') - slack < max diag(G') + slack <= upper, while the test
needs lower > (M * tol)**2 * upper >= upper.  Wider selections are not
tested: on a state short of full rank they are seldom diagonally
dominant, and the test would cost more than it saves; nor are smaller
groups, whose few SVDs cost less than the test.

One rule reads every floating verdict: reported ones
(``real_rank``, ``real_ranks``, the tables of ``orbit_report``) and bare
ranks (``span_dims``) alike, for the full selection and for proper
subsets, of full rank or deficient.  With s the singular values of the
selection's R slice, k the number strictly above the cutoff
``tol * s[0]`` and M = ``GAP_WARNING_THRESHOLD``, R certifies k when

* k = 0 or s[k-1] > M times the cutoff (the kept side's margin), and
* k = len(s), or tol >= M * eps and s[k] lies under both the cutoff / M
  (the dropped side's margin) and the rounding floor
  ``ROUNDING_FLOOR * s[0]``.

s is in descending order, and M times the cutoff lies above the cutoff,
which lies above the dropped side's bound, the smaller of the cutoff / M
and the floor (each is a rounded multiple of s[0], and rounding keeps
their order).  So the rule reads the same as: R certifies k when k
values lie past the kept side's margin and every other value lies under
the dropped side's bound; those k are then exactly the values above the
cutoff.  At tol < M * eps only k = len(s) is certified.  That is how
``_certified_ranks`` decides a whole stack of slices at once, one count
per side over the stack's singular values.

A certified verdict is read from the slice.  Any other comes from the
selection's columns of the real view, as a direct SVD gives it, and is
kept in ``tm.ranks``: ``TangentMatrix.columns`` generates those columns
alone, over every code, so a pair's fallback holds 2**(n+1) x 6 values
and only a fallback of the full selection holds every column.  The rule
holds while rounding stays under the gap between the cutoff / M and
the cutoff, (1 - 1/M) times the cutoff: a value above M times the cutoff
cannot then fall to it, nor a value under the cutoff / M rise past it,
so the real view keeps the same k values.  On the dropped side rounding
may use nearly the whole cutoff, not just the cutoff / M.  tol >= M * eps
keeps that room above (M - 1) * eps * s[0], so c may grow to about M;
below it the cutoff sits within rounding of zero, and R certifies only
full rank.

The contract this gives, against a direct SVD of the selection's
columns of the real view: the same rank, always; singular values within
the rounding floor; and the same gap ratio once the floor applies to
both.  A dropped value under the floor is indistinguishable from zero,
so a gap ratio over it is reported as inf (JSON null), unless the ratio
itself is under M and flags the verdict.  A certified deficient verdict
has a ratio above M**2 (both margins) and a dropped value under the
floor, so it reports inf, as the real view does wherever its own dropped
value lies under the floor.  A full-rank verdict drops nothing.  So
every certified verdict is made with gap ratio inf and the rank that
certified it, with no second count.  A third kind of verdict, of full
column rank certified by a row sample or by R's Gram, has that rank and
gap ratio too, and no singular values at all.  Singular values are not
bit-identical to the direct route's: R's dropped values are rounding
noise, and the noise changes with the block order and the BLAS thread
count.  The floor keeps that noise out of every printed gap ratio.

``real_ranks`` and ``span_dims`` let a selection inside one certified as
full column rank inherit its column count, with no decomposition or
elimination.  Removing columns can only raise the smallest singular value
and lower the largest (interlacing for column submatrices; R. C.
Thompson, Linear Algebra Appl. 5 (1972) 1-12).  So once a selection is
certified as full column rank with the kept side's margin, every
selection inside it clears the same margin.  It draws on the rounding
budget of the rule above, not a new one: the interlacing is exact on R,
and its slices differ from the real view's columns by the same
c * eps * s[0]; a verdict read from the real view's own columns
interlaces exactly.  Over the rationals, columns inside an independent
set are independent, so an exact verdict of full rank certifies with no
margin.  A family first takes as certified every verdict that
``tm.ranks`` keeps at the same tol, on both backends: once
``orbit_report`` has kept a full selection of full rank, its pair and
lone tables take no SVD and no elimination.  An inherited verdict has
gap ratio inf and no singular values, and is not kept.

A family on either backend is then answered widest selection first,
one width group at a time, each selection it certifies as full column
rank certifying the narrower ones too, and ``_answer`` makes every
verdict, for a family and for ``real_rank`` alike.  Each selection holds
its columns as bits (``ColumnSelector.mask``), so a selection lies inside
a certified one exactly when it meets no bit of that one's complement:
one array test decides which selections of a group inherit, against
every certified mask at once.  The rest of the group go to ``_answer``
together: an exact matrix ranks their blocks in one pass and keeps
every verdict; a floating one first takes the full column rank that the
row sample or R's Gram certifies, and gives the rest one stacked SVD of
their R slices (LAPACK decomposes each matrix of a stack as it would
alone) and decides the rule on the stack's singular values as arrays.
Only the selections R
cannot certify, and the verdicts that are kept, are then visited one at
a time.  ``real_ranks`` keeps every verdict it reads from R;
``span_dims`` returns a rank it reads from R for a proper subset bare,
kept nowhere.

What a walk needs of its selectors depends only on them and on n, not
on the state, so it is planned once (``_plan``): each selector checked
against n, in order; the width groups, widest first, each holding its
selections' positions in the family, their masks as int64 and their
columns as one ``(k, width)`` index array, which gathers the group's R
slices as it is; and, for a group the Gram may certify, its membership
matrix, which sums every Gershgorin disc's radius in one product.  A
``SelectorFamily`` keeps its plan for each n, so the families the package
asks again and again (the pair and lone tables, the subset suites) are
planned on first use and every later walk, on any matrix, only reads the
plan.  Any other iterable is planned for its one
walk, as ``real_rank``'s one selection is.  Kept verdicts are still read
before tol and the selectors are checked, and a selection with a kept
verdict is left out of its group, so the plan changes no verdict, no
kept entry and no order of work.

Float complements (``complement_dim``) read R too: its columns have the
inner products of the real view's.  An SVD of the ``against`` columns of
R gives an orthonormal basis of their span (same relative cutoff as a
verdict), and each triple's columns of R are projected onto it.  One
qubit's z, y and x actions are orthonormal on a unit-norm state, so the
triple needs no QR, and the projection's singular values are cosines in
[0, 1]: their cutoff is the absolute ``s > tol``.  The right singular
vectors at or below it are the complement's coefficients in the triple's
columns (``_complement_coeffs``, which factors the ``against`` columns
once for all the triples it is asked).  Times the triple's columns of R
they give the complement in R's coordinates: Q is orthonormal, so any set
of such vectors has the singular values of the real-view vectors, which
is all a joint rank of complements needs (the ``twotripspan5`` suite).

``tol`` must be finite and lie in [eps, 1) with eps the float64 machine
epsilon (``check_tol``): below eps the cutoff sits under rounding noise,
and at 1 or above it discards every singular value.  ``DEFAULT_TOL``,
``GAP_WARNING_THRESHOLD``, ``ROUNDING_FLOOR`` and ``check_tol`` come from
``tolerance``, which also records where this policy stops holding.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from itertools import compress, groupby
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .lie_action import TangentMatrix, _triple_columns
from .states import EXACT, FLOAT
from .tolerance import DEFAULT_TOL, EPS, GAP_WARNING_THRESHOLD, ROUNDING_FLOOR, check_tol


@dataclass(frozen=True)
class ColumnSelector:
    """A subset of tangent-matrix columns: whole triples plus the last column.

    ``width`` counts the columns selected, and ``mask`` holds them as bits:
    bit k for triple k, bit 0 for the last column, so a selection lies
    inside another exactly when its bits do.  Both are computed once, at
    construction.  A selection with a triple outside 1..n never has its
    mask read: ``column_indices`` rejects it first.
    """

    triples: frozenset
    include_last: bool = False
    width: int = field(init=False, repr=False, compare=False)
    mask: int = field(init=False, repr=False, compare=False)

    def __init__(self, triples: Iterable[int] = (), include_last: bool = False):
        triples, include_last = frozenset(map(operator.index, triples)), bool(include_last)
        object.__setattr__(self, "triples", triples)
        object.__setattr__(self, "include_last", include_last)
        object.__setattr__(self, "width", 3 * len(triples) + include_last)
        object.__setattr__(self, "mask", sum(1 << k for k in triples if k > 0) | include_last)

    @classmethod
    def full(cls, n: int) -> "ColumnSelector":
        return cls(range(1, n + 1), include_last=True)

    @property
    def is_empty(self) -> bool:
        return not self.triples and not self.include_last

    def column_indices(self, n: int) -> tuple:
        """Concrete column indices for an n-qubit tangent matrix.

        Raises ``ValueError`` for the first triple outside 1..n.  A family
        keeps them per n as its plan's column arrays (``_plan``).
        """
        cols = [c for k in sorted(self.triples) for c in _triple_columns(k, n)]
        if self.include_last:
            cols.append(3 * n)
        return tuple(cols)


class SelectorFamily(tuple):
    """A fixed tuple of ``ColumnSelector``s that keeps its walk plan for each n.

    ``span_dims`` and ``real_ranks`` walk a family by its plan (``_plan``):
    each selector checked against n, and the selections grouped by width,
    widest first, with each group's positions, bit masks and column
    indices as arrays.  The plan depends only on the selectors and n, so a
    family builds it once per n, on the first walk that needs it, and every
    later walk on any n-qubit matrix reads it.  Any other iterable of
    selectors gets a plan of its own, used once.
    """

    def __new__(cls, selectors: Iterable[ColumnSelector]):
        family = super().__new__(cls, selectors)
        family._plans = {}
        return family

    def plan(self, n: int) -> tuple:
        """``_plan`` of this family at n, built on the first call for n."""
        plan = self._plans.get(n)
        if plan is None:
            plan = self._plans[n] = _plan(self, n)
        return plan


class _Group(NamedTuple):
    """The selections of one width in a plan: positions in their family, selectors, masks and columns.

    ``masks`` holds each selection's ``ColumnSelector.mask`` as int64, and
    ``cols`` its ``column_indices`` as the rows of a ``(k, width)`` array.
    ``members`` is None, or, for a group the float Gram may certify
    (``_GRAM_GROUP`` or more proper subsets of at most two triples,
    ``_GRAM_WIDTH``), the ``(3n+1, k)`` membership matrix: 1.0 where a
    column lies in a selection, 0.0 elsewhere.
    """

    width: int
    at: list
    sels: list
    masks: np.ndarray
    cols: np.ndarray
    members: Optional[np.ndarray]

    def only(self, flags: list) -> Optional["_Group"]:
        """The group of the selections whose ``flags`` are true, in order: this one if all are, None if none."""
        rows = list(compress(range(len(flags)), flags))
        if len(rows) == len(flags) or not rows:
            return self if rows else None
        at, sels, members = self.at, self.sels, self.members
        return _Group(
            self.width,
            [at[j] for j in rows],
            [sels[j] for j in rows],
            self.masks[rows],
            self.cols[rows],
            None if members is None else members[:, rows],
        )


#: Widest selection whose full column rank the float Gram may certify: two
#: triples and the last column.  Only narrow selections of a state short of
#: full rank come so far, and most of them have a near-diagonal Gram.
_GRAM_WIDTH = 7

#: Fewest selections in a group that the float Gram is asked about.  Its test
#: took 13.8 us on one BLAS thread at n = 8, against 9.8 us for one R slice's
#: SVD and about 4.7 us more per slice stacked, so a smaller group costs
#: more to test than to decompose.
_GRAM_GROUP = 3


def _plan(selectors: Sequence, n: int) -> tuple:
    """The width groups of ``selectors`` at n, widest first, each in the family's order.

    Each selector is checked first, in order (``_check_selector``), so a
    bad one raises what ``real_rank`` raises for it.  A group of at least
    ``_GRAM_GROUP`` proper subsets of at most ``_GRAM_WIDTH`` columns gets
    its membership matrix.
    """
    columns = [_check_selector(sel, n) for sel in selectors]
    widths = [sel.width for sel in selectors]
    order = sorted(range(len(selectors)), key=widths.__getitem__, reverse=True)
    groups = []
    for width, at in groupby(order, key=widths.__getitem__):
        at = list(at)
        sels = [selectors[i] for i in at]
        masks = np.array([sel.mask for sel in sels], dtype=np.int64)
        cols = np.array([columns[i] for i in at], dtype=np.intp)
        members = None
        if width <= min(_GRAM_WIDTH, 3 * n) and len(at) >= _GRAM_GROUP:
            members = np.zeros((3 * n + 1, len(at)))
            members[cols, np.arange(len(at))[:, None]] = 1.0
        groups.append(_Group(width, at, sels, masks, cols, members))
    return tuple(groups)


@dataclass(frozen=True)
class RankResult:
    """Verdict of one rank query.

    ``singular_values`` (floating backend only) are those of the matrix
    the verdict was read from.  A verdict certified from the columns of
    ``TangentMatrix.r_factor`` carries the singular values of that R
    slice: its rank equals the direct one on the real view, its gap ratio
    equals it under the rounding floor's rule, and its singular values
    agree with it to within the floor (module docstring).  A verdict of
    full column rank certified without an SVD, by a row sample (no R) or
    by Gershgorin's bounds on R's Gram, carries none, as does a rank that
    ``real_ranks`` inherits from a wider selection.
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


def _float_rank(view: np.ndarray, tol: float) -> RankResult:
    """Verdict from the singular values of ``view``, by a direct SVD."""
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


def _psd_rank(upper: list) -> int:
    """Rank of a symmetric positive semidefinite matrix of Python ints, by fraction-free elimination.

    ``upper`` holds the matrix as row lists, of which only the entries on
    and above the diagonal are read; it is eliminated in place.  Pivots
    are taken on the diagonal, in order (module docstring): a zero
    diagonal entry has a zero row and column, which stay zero, so they are
    neither pivots nor updated.  Each step is Bareiss's on the pivots
    taken so far, so every division is exact and the verdict carries no
    tolerance at all.
    """
    size = len(upper)
    rank, prev = 0, 1
    for k, pivot_row in enumerate(upper):
        p = pivot_row[k]
        if not p:
            continue
        for i in range(k + 1, size):
            row = upper[i]
            if not row[i]:  # a zero row, and it stays zero
                continue
            c = pivot_row[i]
            for j in range(i, size):
                row[j] = (p * row[j] - c * pivot_row[j]) // prev
        prev, rank = p, rank + 1
    return rank


#: The largest squared norm s at which ``_exact_ranks`` builds its blocks in
#: int64.  Every Gram entry is at most s in magnitude (Cauchy-Schwarz, each
#: column's squared norm being s), so every entry of s * G[B, B] - G[B, T] @
#: G[T, B], and every partial sum of it, is at most 4 s**2 <= 2**62.
_INT64_SQUARED_NORM = 2**30


def _exact_ranks(gram: np.ndarray, cols: np.ndarray) -> list:
    """Exact rank of each selection of one width, its columns a row of ``cols``, from the integer Gram ``gram``.

    With T a selection's first triple and B the rest of its columns (every
    column, for the last column alone), each rank is T's width plus that
    of ``s * G[B, B] - G[B, T] @ G[T, B]``, s = ``G[last, last]`` (module
    docstring).  Every selection's block is built at once, by one batched
    product: in int64 while s is at most ``_INT64_SQUARED_NORM``, in Python
    ints past it.  A 1 x 1 block is ranked by a nonzero test, a 3 x 3 one
    by its principal minors (``_psd_rank3``), and a wider one by
    elimination (``_psd_rank``).
    """
    s, width = int(gram[-1, -1]), cols.shape[1]
    pivots = 3 if width >= 3 else 0
    size = width - pivots
    if not size:
        return [pivots] * len(cols)
    g = np.asarray(gram, dtype=np.int64 if s <= _INT64_SQUARED_NORM else object)
    first, rest = cols[:, None, :pivots], cols[:, pivots:, None]
    cross = g[rest, first]  # G[B, T], one (size, pivots) block per selection
    blocks = s * g[rest, rest.transpose(0, 2, 1)] - cross @ cross.transpose(0, 2, 1)
    if size == 1:
        return (pivots + (blocks[:, 0, 0] != 0)).tolist()
    rank = _psd_rank3 if size == 3 else _psd_rank
    return [pivots + rank(block) for block in blocks.tolist()]


def _psd_rank3(block: list) -> int:
    """Rank of a 3 x 3 symmetric positive semidefinite matrix of Python ints, by its principal minors.

    A symmetric matrix of rank k has a nonsingular k x k principal
    submatrix and no larger one, so its rank is the order of its largest
    nonzero principal minor.  Only the upper triangle is read, as row
    lists or as the rows of an object array.
    """
    (a, b, c), (_, d, e), (_, _, f) = block
    if a * (d * f - e * e) - b * (b * f - c * e) + c * (b * e - c * d):
        return 3
    if a * d - b * b or a * f - c * c or d * f - e * e:
        return 2
    return 1 if a or d or f else 0


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
    The query is answered as a group of one: the full selection reads the
    plan ``_full_family`` keeps once per n, any other is planned per call.
    """
    if selector is None:
        selector = _full_selector(tm.n)
    check_tol(tol)
    result = tm.ranks.get((selector, tol))
    if result is None:  # a kept verdict passed every check when it was made
        full = _full_family(tm.n)
        (group,) = full.plan(tm.n) if selector == full[0] else _plan([selector], tm.n)
        result = _answer(tm, group, tol, keep=True)[1][0]
    return result


@functools.lru_cache(maxsize=None)
def _full_family(n: int) -> SelectorFamily:
    """The one-member family of ``ColumnSelector.full(n)``, built once per n with the plan it keeps."""
    return SelectorFamily([ColumnSelector.full(n)])


def _full_selector(n: int) -> ColumnSelector:
    """``ColumnSelector.full(n)``, ``real_rank``'s default selection: the one member of ``_full_family(n)``."""
    return _full_family(n)[0]


def _check_selector(selector: ColumnSelector, n: int) -> tuple:
    """The check of each query's selection, after ``check_tol``: not empty, triples in 1..n.

    Returns its column indices, which ``_plan`` reads.
    """
    if selector.is_empty:
        raise ValueError("rank of an empty column selection is undefined")
    return selector.column_indices(n)  # raises for a triple outside 1..n


def _clears_margin(smallest, largest, tol: float):
    """Whether ``smallest`` lies above ``GAP_WARNING_THRESHOLD`` times the cutoff ``tol * largest``.

    The kept side's margin, for every verdict, on floats or elementwise on
    arrays: one expression, so that equal values at tol = 1 / M round the
    same way wherever it is tested.
    """
    return smallest > GAP_WARNING_THRESHOLD * tol * largest


def _certified_ranks(s: np.ndarray, tol: float) -> tuple:
    """``(ranks, certified)`` of R slices whose singular values are the rows of ``s`` (module docstring).

    Each row is in descending order.  ``ranks`` counts the values past the
    kept side's margin, and R certifies a row exactly when every other
    value lies under the dropped side's bound, the smaller of the cutoff
    / M and the rounding floor; at tol < M * eps, only when there is no
    other value.  Each count is one expression over the ``(k, w)`` block.
    A certified row's rank is its number of values above the cutoff, as
    ``retained_rank`` counts them: the margin lies above the cutoff and the
    bound under it.  An uncertified row's count is not a rank.
    """
    top = s[:, :1]
    ranks = _clears_margin(s, top, tol).sum(axis=1)
    if tol < GAP_WARNING_THRESHOLD * EPS:  # the cutoff lies within rounding of zero
        return ranks, ranks == s.shape[1]
    bound = np.minimum(tol * top / GAP_WARNING_THRESHOLD, ROUNDING_FLOOR * top)
    return ranks, ranks == (s >= bound).sum(axis=1)


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

    The ranks of ``real_ranks``' verdicts on the family, by the same
    widest-first walk.  A rank read from R for a proper subset, or
    inherited on either backend, is returned bare and kept nowhere.
    ``selectors`` may be any iterable; a ``SelectorFamily`` is walked by
    the plan it keeps for n, anything else by a plan made for this walk.
    """
    return _family(tm, _as_family(selectors), tol, keep=False)[0]


def real_ranks(
    tm: TangentMatrix, selectors: Iterable[ColumnSelector], tol: float = DEFAULT_TOL
) -> list:
    """``real_rank``'s verdict on each selector, in the caller's order, kept in ``tm.ranks``.

    On both backends, a selection inside one whose verdict ``tm.ranks``
    keeps at the same tol as full column rank (past the kept side's margin,
    in floating mode) inherits its column count with no decomposition or
    elimination: its verdict has gap ratio inf, no singular values, the
    matrix's backend, and is not kept.  Either backend answers the rest
    widest selection first and inherits from the selections it certifies
    on the way.  The rest of each width are answered together: an exact
    matrix ranks them in one pass; a floating one gives its width to each
    selection whose full column rank its row sample or R's Gram
    certifies, gives the others one stacked SVD of their R slices, and
    reads each of their verdicts from its slice wherever R certifies it,
    from the real view otherwise (module docstring).  Kept verdicts are
    read first; every other query is checked, in order, before any is
    answered, so a bad selector or tol raises what ``real_rank`` raises.
    ``selectors`` may be any iterable, and a ``SelectorFamily`` is checked
    and planned only on its first walk at n (``span_dims``).
    """
    ranks, verdicts = _family(tm, _as_family(selectors), tol, keep=True)
    return [
        RankResult(rank=rank, gap_ratio=math.inf, backend=tm.mode) if verdict is None else verdict
        for rank, verdict in zip(ranks, verdicts)
    ]


def _as_family(selectors: Iterable[ColumnSelector]) -> SelectorFamily:
    """``selectors`` if it is a ``SelectorFamily``, else a family of them whose plan is used once."""
    return selectors if isinstance(selectors, SelectorFamily) else SelectorFamily(selectors)


def _family(tm: TangentMatrix, family: SelectorFamily, tol: float, keep: bool) -> tuple:
    """``(ranks, verdicts)`` of ``family``, in order; a verdict is None where only the rank is known.

    Kept verdicts are read first.  The rest are checked, tol once and then
    each selection in order when the family's plan at n is built
    (``SelectorFamily.plan``), and answered widest first, one width group
    of the plan at a time.  The group's selections that lie inside one
    certified as full column rank, kept or answered on the way, inherit its
    column count: one test of the group's masks against every certified
    mask.  The rest go to ``_answer`` together, and those it certifies join
    the certified masks.  A verdict on a proper subset read from R or
    certified by the row sample or R's Gram is made and kept only when
    ``keep``.
    """
    verdicts = [None] * len(family)
    if tm.ranks:
        verdicts = [tm.ranks.get((sel, tol)) for sel in family]
    ranks = [None if verdict is None else verdict.rank for verdict in verdicts]
    todo = verdicts.count(None)
    if not todo:
        return ranks, verdicts
    check_tol(tol)  # a kept verdict passed every check when it was made
    plan = family.plan(tm.n)
    # the complements of the selections certified as full column rank (``_outside``)
    holes = [
        ~sel.mask
        for (sel, at), verdict in tm.ranks.items()
        if at == tol and _certifies(verdict, sel.width, tol)
    ]
    for group in plan:
        if todo < len(family):
            group = group.only([verdicts[i] is None for i in group.at])
        if group is not None and holes:
            outside = _outside(group.masks, holes)
            for i, ask in zip(group.at, outside):
                if not ask:
                    ranks[i] = group.width
            group = group.only(outside)
        if group is None:
            continue
        keeps = keep or group.width == tm.column_count
        got, made, certifies = _answer(tm, group, tol, keeps)
        for i, rank, verdict in zip(group.at, got, made):
            ranks[i], verdicts[i] = rank, verdict
        holes += [~sel.mask for sel, c in zip(group.sels, certifies) if c]
    return ranks, verdicts


def _outside(masks: np.ndarray, holes: list) -> list:
    """Whether each of the int64 ``masks`` lies outside every certified selection; ``holes`` are their complements.

    One array test of every mask against every hole: a mask lies outside a
    certified selection exactly when it meets a bit of that one's complement.
    """
    met = np.bitwise_and.outer(masks, np.array(holes, dtype=np.int64))
    return met.all(axis=1).tolist()


def _certifies(result: RankResult, width: int, tol: float) -> bool:
    """Whether a verdict on ``width`` columns certifies them as full column rank for inheritance.

    A verdict of full rank does when it carries no singular values (an
    exact one, or a floating one that a row sample or R's Gram certified,
    which is made only past the kept side's margin), and a floating one
    with singular values when they clear that margin.
    """
    return result.rank == width and (
        result.singular_values is None
        or _clears_margin(result.singular_values[-1], result.singular_values[0], tol)
    )


def _sample_certifies(tm: TangentMatrix, tol: float) -> bool:
    """Whether ``tm.sample_sigma`` certifies every selection as full column rank (module docstring).

    sqrt(3n + 1) is the real view's Frobenius norm on a unit state, a bound on its largest singular value.
    """
    return _clears_margin(tm.sample_sigma, math.sqrt(tm.column_count), tol)


def _gram_certifies(tm: TangentMatrix, group: _Group, tol: float) -> list:
    """Whether ``tm.gram``, R's Gram, proves each selection of ``group`` of full column rank past the kept side's margin.

    Gershgorin's discs of each selection's principal block of the Gram,
    widened by the Gram's rounding slack, bound the block's eigenvalues,
    the squared singular values of the selection's R slice (module
    docstring).  One product of the Gram's absolute off-diagonal entries
    with the group's membership matrix gives every disc's radius.
    """
    gram, cols, width = tm.gram, group.cols, group.width
    diagonal = gram.diagonal()
    off = np.abs(gram)
    np.fill_diagonal(off, 0.0)
    radii = (off @ group.members)[cols, np.arange(len(cols))[:, None]]
    centres = diagonal[cols]
    slack = 4 * (tm.column_count + width) * EPS * width * diagonal.max()
    lower = (centres - radii).min(axis=1) - slack
    upper = (centres + radii).max(axis=1) + slack
    return (lower > (GAP_WARNING_THRESHOLD * tol) ** 2 * upper).tolist()


def _answer(tm: TangentMatrix, group: _Group, tol: float, keep: bool) -> tuple:
    """``(ranks, verdicts, certifies)`` of a plan's ``group`` of one width: where every verdict is made.

    ``certifies`` tells whether a selection is certified as full column
    rank.  An exact matrix ranks every selection's block of its Gram in
    one pass, by the group's column array (``_exact_ranks``), and keeps
    every verdict; full rank certifies.  A floating matrix first
    certifies full column rank without any SVD where it can: every
    selection when its row sample does (``_sample_certifies``), and else
    each selection of a group with a membership matrix whose Gram block
    proves it (``_gram_certifies``).  Such a selection has its width as its
    rank, made as a verdict with gap ratio inf and no singular values only
    when ``keep``, and kept.  The rest take one stacked SVD of their R
    slices, gathered by the group's column array, and the stack is decided
    at once (``_certified_ranks``).  A rank R certifies is read from its
    slice, as that count made it; its verdict, with gap ratio inf (module
    docstring) and the slice's singular values, is made and kept in
    ``tm.ranks`` only when ``keep``, and is None otherwise.  Every other
    selection gets the verdict of its columns of the real view
    (``_float_rank``), kept.
    """
    width, sels, cols = group.width, group.sels, group.cols
    if tm.mode == EXACT:
        ranks = _exact_ranks(tm.gram, cols)
        made = [RankResult(rank, math.inf, EXACT) for rank in ranks]
        tm.ranks.update(((sel, tol), verdict) for sel, verdict in zip(sels, made))
        return ranks, made, [rank == width for rank in ranks]
    if _sample_certifies(tm, tol):
        fits = [True] * len(sels)
    elif group.members is None:
        fits = [False] * len(sels)
    else:
        fits = _gram_certifies(tm, group, tol)
    ranks, made, certifies = [width] * len(sels), [None] * len(sels), list(fits)
    if keep:
        for j in compress(range(len(sels)), fits):
            made[j] = tm.ranks[(sels[j], tol)] = RankResult(width, math.inf, FLOAT)
    ask = [j for j, fit in enumerate(fits) if not fit]
    if not ask:
        return ranks, made, certifies
    asked = cols if len(ask) == len(sels) else cols[ask]
    stacked = np.linalg.svd(tm.r_factor[:, asked].transpose(1, 0, 2), compute_uv=False)
    counts, certified = _certified_ranks(stacked, tol)
    for i, (j, rank, ok) in enumerate(zip(ask, counts.tolist(), certified.tolist())):
        if not ok:
            verdict = _float_rank(tm.columns(cols[j]), tol)
            ranks[j], certifies[j] = verdict.rank, _certifies(verdict, width, tol)
        else:
            # R certifies full column rank only past the kept side's margin, where rank == width
            ranks[j], certifies[j] = rank, rank == width
            if not keep:
                continue
            verdict = RankResult(rank, math.inf, FLOAT, tuple(stacked[i].tolist()))
        made[j] = tm.ranks[(sels[j], tol)] = verdict
    return ranks, made, certifies


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
    [0, 1] (module docstring); exact mode ranks the cross block C of the
    integer Gram, ``G[against, inside]``, as the 3 x 3 Gram C^T C.
    """
    check_tol(tol)
    triple = tm.triple_indices(inside)
    if inside in against.triples:
        raise ValueError(f"triple {inside} may not appear in the 'against' selection")
    if against.is_empty:
        return 3
    if tm.mode == FLOAT:
        return len(_complement_coeffs(tm, (inside,), against, tol)[0])
    cross = tm.gram[np.ix_(against.column_indices(tm.n), triple)].astype(object)
    # rank C = rank C^T C over the rationals, and C^T C is a 3 x 3 PSD Gram, in Python ints
    return 3 - _psd_rank3(cross.T @ cross)


def _complement_coeffs(tm: TangentMatrix, insides: tuple, against: ColumnSelector, tol: float) -> list:
    """One d x 3 array C per triple of ``insides``: its real-view columns times ``C.T`` span its complement.

    The ``against`` columns of R are factored once, for every triple; only R is read.
    """
    r = tm.r_factor
    u, s, _ = np.linalg.svd(r[:, list(against.column_indices(tm.n))], full_matrices=False)
    basis = u[:, s > tol * s[0]].T
    coeffs = []
    for inside in insides:
        _, s, vt = np.linalg.svd(basis @ r[:, list(tm.triple_indices(inside))])
        coeffs.append(vt[np.count_nonzero(s > tol) :])
    return coeffs
