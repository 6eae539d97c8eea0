"""The tolerance policy: every numerical threshold of the package, with its reason.

No other module defines a threshold; each imports the entry for its
meaning from here, so one meaning has one value.  Exact verdicts use none
of them: the exact backend is tolerance-free.

Rank verdicts (floating backend):

* ``DEFAULT_TOL`` is the relative cutoff: a singular value counts when it
  is strictly above ``tol`` times the largest.  ``check_tol`` bounds any
  ``tol`` to [``EPS``, 1).
* ``GAP_WARNING_THRESHOLD`` flags a verdict as ill-conditioned when the
  smallest kept singular value is less than this many times the largest
  dropped one.  The same factor M is the margin by which the singular
  values of a column slice of the cached factor R
  (``TangentMatrix.r_factor``) must clear the cutoff, above it on the
  kept side and below it on the dropped side, before the slice certifies
  a verdict: rounding between R and the real view is a small multiple of
  ``EPS`` times the largest value, so it cannot move a value across a
  cutoff that far away.
* ``ROUNDING_FLOOR`` is the relative level under which a dropped singular
  value is indistinguishable from zero: M * ``EPS`` times the largest.
  Two routes to one verdict (LAPACK's QR of the whole real view, R
  streamed from row blocks, another BLAS thread count) differ by
  rounding of c * ``EPS`` times the largest value, c growing with the
  height 2**(n+1).  The margins above already budget c up to M: the
  dropped side's margin keeps (M - 1) * ``EPS`` of room under a cutoff of
  at least M * ``EPS``.  So the floor is that same budget, not a new
  one.  Measured: the dropped values of scrambled singlet products (full,
  pair and lone selections, three states each at n = 12, 13, 14 and 16)
  lie at most 3.4 ``EPS`` times the largest, about 300 times under the
  floor; printed as ratios, they changed with the BLAS thread count at
  n = 13 and 14.  A gap ratio whose dropped value lies under the floor
  is reported as inf (JSON null, as for full rank), unless it is itself
  under M and flags the verdict; so no flag and no warning depends on
  the floor.
* ``PRODUCT_RESIDUAL`` is how far psi may lie from c times a product of
  unit one- and two-qubit factors for R to be built from those factors
  (``TangentMatrix.r_factor``).  The split that finds the factors
  measures it: psi - c * product is the sum of each factor's remainder,
  the part of its step's block orthogonal to it, and these are mutually
  orthogonal, so the residual is the root of the sum of their squared
  norms.  Each norm is that of a difference, not 1 - |c|**2 or a
  difference of squared norms, which would square it.  The
  tangent matrix is linear in psi and each column is a unitary acting on
  it, so the real views of psi and of the product differ by at most
  sqrt(3n + 1) times the bound in norm, and every selection's largest
  singular value is at least 1 on a unit state: that route adds at most
  16 * sqrt(91), about 153, ``EPS`` to the rounding c * ``EPS`` that the
  margins budget up to M, at n = 30.  Measured with each factor read from
  its block, on scrambled singlet products and on products of Haar
  two-qubit states built by ``np.kron``: residuals of at most 4.9
  ``EPS`` (100 states of each at n = 8, 11, 12 and 13, 20 at n = 14 to 17
  and 19, 3 at n = 18 and 20 to 23), so the bound accepts them all;
  a state 1e-13 from such a product is refused.  A factor read from a
  reduced Gram's column carried that Gram's rounding, summed over
  2**(n-2) or more terms: scrambled singlet products then reached 12, 28,
  42 and 98 ``EPS`` at n = 18, 20, 21 and 22, past the bound, and
  streamed.  The split is only proposed, by rank-one tests of 2 x 2 and
  4 x 4 reduced Grams with the slack ``INNER_PRODUCT_ATOL``: a Gram
  squares the residual, so it cannot tell 1e-9 from ``EPS``, and it
  decides nothing.

``GAP_WARNING_THRESHOLD`` is also the margin of the row sample that
certifies a state's full column rank without R (``rank`` module
docstring): its smallest singular value must exceed M * tol * sqrt(3n + 1),
the kept side's margin over a bound on the largest.  Measured on Haar
states, it lies at 0.24, 0.11, 0.05, 0.021 and 0.005 at n = 10, 12, 14, 16
and 20, against 7.8e-7 at the default tol and n = 20.

The same margin, squared, is the one test a float Gram may pass, and it
certifies only full column rank (``rank`` module docstring): Gershgorin's
bounds on a selection of at most two triples in R's Gram, lower and
upper, must satisfy lower > (M * tol)**2 * upper.  Squaring is sound
here because the bounds carry an explicit rounding slack, 4 (m + w)
``EPS`` w times the Gram's largest diagonal entry (m = 3n + 1 columns, w
the width): the error of m-term dot products, moved onto eigenvalues by
Weyl, with room for the discs' own sums.  A selection the test refuses
takes R's SVD route, so no deficient verdict and no gap ratio is read
from a squared spectrum, and at tol >= 1 / M the test passes nothing.

Slacks of the independent checks (verify oracles, state comparison,
SU(2) validation, contraction).  They compare quantities of unit scale,
so each is absolute (the Schmidt product test scales it by the largest
coefficient, which lies in [1/sqrt(2), 1]).  They grow with the floating
work that lies between the two sides being compared:

* ``ROUNDOFF_ATOL``: equalities reached by a few roundings of unit-scale
  numbers (entries of a unitary, of a normalized state or of its generator
  columns), where the error is a small multiple of ``EPS``.
* ``INNER_PRODUCT_ATOL``: inner products of unit vectors, and the
  proportionality of two unit states, where each sum over 2**n terms adds
  rounding; also the rank-one tests of reduced Grams that propose a
  product split (``PRODUCT_RESIDUAL``).
* ``ORACLE_TOL``: oracles that stack factorizations (an SVD of a Schmidt
  vector, purity from a reduced density matrix, the joint rank of two
  complement bases, the reassembly of contracted factors), each adding
  error on the order of ``EPS`` times a condition number.

Four limits of the policy, each measured:

1. A floating verdict is the exact rank of the matrix after every
   direction at or below ``tol * sigma_max`` is dropped.  The gap ratio
   compares the smallest kept value with the largest dropped one; it says
   nothing about the distance from either to the cutoff.  A state
   ``|00> + (1 - delta)|11>`` on two qubits, tensored with a rational rest
   (n = 2..5, every triple-union selector), has float verdicts equal to its
   exact ranks for delta down to 1e-9.  From 1e-10 on, every verdict
   equals the exact rank of the delta = 0 state instead, lower on some
   selectors, and every gap ratio stays above 1e6, so none is flagged.
2. A floating complement (``rank.complement_dim``) applies ``tol`` as an
   absolute cutoff to cosines.  Rounding moves the projection behind them
   by about ``EPS * cond(against)``, ``cond`` being the condition number of
   the kept ``against`` columns, so the verdict holds only while about
   ``10 * EPS * cond(against)`` stays below ``tol``.  It reports no gap
   ratio, so a caller cannot see how close it came.
3. Each selection's cutoff is relative to its own largest singular value,
   so a tol too loose for the state can give verdicts that no state has:
   at tol 0.5, GHZ on 5 qubits gets rank 1, orbit dimension 0 under the
   minimum 8, and pair spans of 5 above that rank.  ``check_tol`` takes no
   bound that depends on n or on the state, so it accepts such a tol;
   ``orbit_report`` and ``classify_min_orbit`` instead check their
   verdicts against the range theorem and containment
   (``analysis._check_theorems``) and raise ``InconsistentStructureError``
   where they break one, which the command line reports with exit 1.
4. At tol >= 1 / M (M = ``GAP_WARNING_THRESHOLD``, so from 1e-3 on) no
   certificate can hold, since each needs M * tol < 1: the row sample's
   threshold M * tol * sqrt(3n + 1) exceeds any singular value it bounds,
   R's kept-side margin asks sigma_min > M * tol * sigma_max of a slice,
   and the Gram test asks lower > (M * tol)**2 * upper.  So every float
   verdict there falls back to the SVD of its own selection's
   2**(n+1)-row columns, and the time follows 2**n: on one BLAS thread,
   ``orbit_report(random_state(16, 2), tol=1e-3)`` took 1.5 to 2.5 s
   against 1.7 to 2.4 ms at the default tol, each of its 136 pair and
   lone selections one full-height SVD.
"""

from __future__ import annotations

import math

import numpy as np

#: float64 machine epsilon: the smallest ``tol`` that sits above rounding noise.
EPS = float(np.finfo(np.float64).eps)

#: Default relative singular-value cutoff of the floating backend.
DEFAULT_TOL = 1e-10

#: Gap ratios below this flag a verdict ill-conditioned; also R's certification margin.
GAP_WARNING_THRESHOLD = 1e3

#: Dropped singular values under this times the largest are indistinguishable from zero.
ROUNDING_FLOOR = GAP_WARNING_THRESHOLD * EPS

#: Largest residual |psi - c * product| for which R is built from psi's one- and two-qubit factors.
PRODUCT_RESIDUAL = 16 * EPS

#: Absolute slack for equalities of unit-scale numbers after a few roundings.
ROUNDOFF_ATOL = 1e-12

#: Absolute slack for inner products and proportionality of unit vectors.
INNER_PRODUCT_ATOL = 1e-10

#: Absolute slack for independent oracles that stack factorizations.
ORACLE_TOL = 1e-8


def check_tol(tol: float) -> None:
    """Raise ValueError unless ``tol`` is a finite relative cutoff in [eps, 1)."""
    if not (math.isfinite(tol) and EPS <= tol < 1.0):
        raise ValueError(f"tol must be finite and in [eps, 1) with eps = {EPS:g}; got {tol!r}")
