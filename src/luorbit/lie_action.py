"""Generator actions on amplitudes and the orbit tangent matrix.

The su(2) basis used everywhere in this package is, per qubit,

    z-generator: i*sigma_z = [[ i, 0], [0, -i]]
    y-generator: i*sigma_y = [[ 0, 1], [-1, 0]]
    x-generator: i*sigma_x = [[ 0, i], [ i, 0]]

Acting on qubit k of psi = sum_I c_I |I>, the coefficient of |I> becomes

    z:  i * (-1)**i_k * c_I
    y:  (-1)**i_k * c_{I with bit k flipped}
    x:  i * c_{I with bit k flipped}

which is pure index arithmetic — no Kronecker products are ever built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .rational import RationalComplex
from .states import EXACT, FLOAT, StateVector

#: Order of generator columns inside each qubit's triple.
TRIPLE_ORDER = ("z", "y", "x")


def _coerce(state_or_vec):
    """Return (amplitudes, mode, n) for a StateVector or a bare vector."""
    if isinstance(state_or_vec, StateVector):
        return state_or_vec.vector, state_or_vec.mode, state_or_vec.n
    if isinstance(state_or_vec, np.ndarray):
        vec = np.asarray(state_or_vec, dtype=np.complex128).reshape(-1)
        return vec, FLOAT, _log2(vec.size)
    seq = tuple(state_or_vec)
    if seq and isinstance(seq[0], RationalComplex):
        return seq, EXACT, _log2(len(seq))
    vec = np.asarray(seq, dtype=np.complex128)
    return vec, FLOAT, _log2(vec.size)


def _log2(size: int) -> int:
    n = size.bit_length() - 1
    if size <= 0 or (1 << n) != size:
        raise ValueError(f"vector length {size} is not a power of two")
    return n


def _check_qubit(n: int, k: int) -> int:
    if not 1 <= k <= n:
        raise ValueError(f"qubit index {k} out of range 1..{n}")
    return 1 << (n - k)


def _bit_signs(n: int, k: int) -> np.ndarray:
    """Vector of (-1)**i_k over all codes."""
    bits = (np.arange(1 << n) >> (n - k)) & 1
    return 1.0 - 2.0 * bits


def apply_z(psi, k: int):
    """Act with the z-generator (i*sigma_z) on qubit k; returns a bare vector."""
    vec, mode, n = _coerce(psi)
    _check_qubit(n, k)
    if mode == FLOAT:
        return 1j * vec * _bit_signs(n, k)
    out = []
    for code, c in enumerate(vec):
        ic = c.times_i()
        out.append(-ic if (code >> (n - k)) & 1 else ic)
    return tuple(out)


def apply_y(psi, k: int):
    """Act with the y-generator (i*sigma_y) on qubit k; returns a bare vector."""
    vec, mode, n = _coerce(psi)
    mask = _check_qubit(n, k)
    if mode == FLOAT:
        flipped = vec[np.arange(1 << n) ^ mask]
        return flipped * _bit_signs(n, k)
    out = []
    for code in range(1 << n):
        c = vec[code ^ mask]
        out.append(-c if (code >> (n - k)) & 1 else c)
    return tuple(out)


def apply_x(psi, k: int):
    """Act with the x-generator (i*sigma_x) on qubit k; returns a bare vector."""
    vec, mode, n = _coerce(psi)
    mask = _check_qubit(n, k)
    if mode == FLOAT:
        return 1j * vec[np.arange(1 << n) ^ mask]
    return tuple(vec[code ^ mask].times_i() for code in range(1 << n))


@dataclass(frozen=True)
class TangentMatrix:
    """Generator actions on a state, column by column, plus -i psi.

    For qubit k (1-based), columns 3k-3, 3k-2, 3k-1 hold the z, y, x
    generator actions; column 3n holds -i psi.  The real rank of this
    matrix equals the orbit dimension of the state under the local
    unitary group, plus one.  ``ranks`` memoizes rank verdicts by
    ``(ColumnSelector, tol)``; see ``rank.real_rank``.
    """

    state: StateVector
    columns: Union[np.ndarray, tuple]
    ranks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.state.n

    @property
    def mode(self) -> str:
        return self.state.mode

    @property
    def column_count(self) -> int:
        return 3 * self.n + 1

    @property
    def last_index(self) -> int:
        return 3 * self.n

    def triple_indices(self, k: int) -> tuple:
        """Column indices of qubit k's generator triple."""
        if not 1 <= k <= self.n:
            raise ValueError(f"qubit index {k} out of range 1..{self.n}")
        base = 3 * (k - 1)
        return (base, base + 1, base + 2)

    def column(self, j: int):
        if self.mode == FLOAT:
            return self.columns[:, j]
        return self.columns[j]

    def select(self, indices: Sequence[int]):
        """Columns at the given indices: an ndarray (float) or column tuple (exact)."""
        if self.mode == FLOAT:
            return self.columns[:, list(indices)]
        return tuple(self.columns[j] for j in indices)


def tangent_matrix(psi: StateVector) -> TangentMatrix:
    """Assemble every generator action on psi together with -i psi."""
    n = psi.n
    if n < 1:
        raise ValueError("tangent matrix needs at least one qubit")
    if psi.mode == FLOAT:
        cols = np.empty((1 << n, 3 * n + 1), dtype=np.complex128)
        for k in range(1, n + 1):
            base = 3 * (k - 1)
            cols[:, base] = apply_z(psi, k)
            cols[:, base + 1] = apply_y(psi, k)
            cols[:, base + 2] = apply_x(psi, k)
        cols[:, 3 * n] = -1j * psi.vector
        cols.flags.writeable = False
        return TangentMatrix(state=psi, columns=cols)
    cols = []
    for k in range(1, n + 1):
        cols.append(apply_z(psi, k))
        cols.append(apply_y(psi, k))
        cols.append(apply_x(psi, k))
    cols.append(tuple(-(c.times_i()) for c in psi.vector))
    return TangentMatrix(state=psi, columns=tuple(cols))


def real_view(columns):
    """Interleave real and imaginary parts: amplitude a+bi becomes rows (a, b).

    The Euclidean dot product of two real views equals Re<u|v> of the
    complex originals, so real spans and ranks reduce to ordinary real
    linear algebra.  Accepts a complex ndarray (1-D vector or N x m column
    stack) or exact columns (a single RationalComplex tuple, or a sequence
    of them); exact input yields Fraction entries.
    """
    if isinstance(columns, np.ndarray):
        arr = np.asarray(columns, dtype=np.complex128)
        if arr.ndim == 1:
            out = np.empty(2 * arr.size, dtype=np.float64)
            out[0::2] = arr.real
            out[1::2] = arr.imag
            return out
        if arr.ndim != 2:
            raise ValueError("real_view expects a vector or a column stack")
        out = np.empty((2 * arr.shape[0], arr.shape[1]), dtype=np.float64)
        out[0::2] = arr.real
        out[1::2] = arr.imag
        return out
    seq = tuple(columns)
    if not seq:
        raise ValueError("real_view of an empty selection")
    if isinstance(seq[0], RationalComplex):
        out_flat = []
        for a in seq:
            out_flat.extend((a.re, a.im))
        return tuple(out_flat)
    rows: list = []
    length = len(seq[0])
    for col in seq:
        if len(col) != length:
            raise ValueError("columns must share a length")
    for j in range(length):
        row_re = [col[j].re for col in seq]
        row_im = [col[j].im for col in seq]
        rows.append(row_re)
        rows.append(row_im)
    return rows


def real_dot(u, v) -> Union[float, Fraction]:
    """Re<u|v> computed directly on complex vectors (either backend)."""
    if isinstance(u, np.ndarray) or isinstance(v, np.ndarray):
        return float(np.real(np.vdot(np.asarray(u), np.asarray(v))))
    total = Fraction(0)
    for a, b in zip(u, v):
        total += a.re * b.re + a.im * b.im
    return total
