"""Generator actions on amplitudes and the orbit tangent matrix.

The su(2) basis used everywhere in this package is, per qubit,

    z-generator: i*sigma_z = [[ i, 0], [0, -i]]
    y-generator: i*sigma_y = [[ 0, 1], [-1, 0]]
    x-generator: i*sigma_x = [[ 0, i], [ i, 0]]

Acting on qubit k of psi = sum_I c_I |I>, the coefficient of |I> becomes

    z:  i * (-1)**i_k * c_I
    y:  (-1)**i_k * c_{I with bit k flipped}
    x:  i * c_{I with bit k flipped}

One tensor routine, ``_write_triple``, computes all three on the state's
real parts held as a (2,)*n + (2,) array: axis k-1 is qubit k's bit and the
last axis is (re, im).  Flipping bit k is ``np.flip`` along axis k-1,
(-1)**i_k is a +-1 vector along that axis, and multiplying by i acts on
the last axis.  The same numpy operations run on float64 arrays and on
object arrays of Python ints, so both backends share the routine, and no
Kronecker products are ever built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .rational import RationalComplex
from .states import FLOAT, StateVector


def _real_parts(psi: StateVector) -> tuple:
    """``(parts, scale)``: psi's real and imaginary parts as a (2,)*n + (2,) array.

    Flattened, the array has row ``2 * code + part`` (part 0 real, 1
    imaginary).  Float mode views the amplitudes as float64 with scale 1.
    Exact mode multiplies every part by ``scale``, the lcm of all their
    denominators, and holds the resulting Python ints in an object array;
    every rank is scale invariant, so this representative serves them all.
    """
    shape = (2,) * psi.n + (2,)
    if psi.mode == FLOAT:
        return psi.vector.view(np.float64).reshape(shape), 1
    parts = [p for a in psi.vector for p in (a.re, a.im)]
    scale = math.lcm(*(p.denominator for p in parts))
    ints = np.array([p.numerator * (scale // p.denominator) for p in parts], dtype=object)
    return ints.reshape(shape), scale


def _amplitudes_of(parts: np.ndarray, mode: str, scale):
    """Read real parts (last axis interleaved re, im) back as amplitudes.

    Float mode gives a complex128 ndarray; exact mode a tuple of
    RationalComplex, divided back by ``scale``.
    """
    flat = np.ascontiguousarray(parts).reshape(-1)
    if mode == FLOAT:
        return flat.view(np.complex128)
    return tuple(
        RationalComplex(Fraction(re, scale), Fraction(im, scale))
        for re, im in zip(flat[0::2], flat[1::2])
    )


def _times_i(parts: np.ndarray, sign: int, out: np.ndarray) -> np.ndarray:
    """Write every complex number on the last axis, times ``sign * i`` (sign +-1), to ``out``.

    Each (a, b) becomes (a*re - b*sign, b*re + a*sign), with ``re`` the
    real part of sign*i: complex128 multiplication spelled out, so float
    results match numpy's complex product bit for bit, signed zeros
    included (a matrix dump prints them); on Python ints it is exact.
    Returns ``out``.
    """
    # -1j has real part -0.0 in float mode, and 0 stays an int in exact mode
    re = sign * parts.dtype.type(0)
    np.multiply(parts, re, out=out)
    out[..., 0] -= parts[..., 1] * sign
    out[..., 1] += parts[..., 0] * sign
    return out


def _operands(parts: np.ndarray) -> tuple:
    """``(parts, i_parts, zeros, i_zeros)``: what ``_write_triple`` reads.

    ``i_parts`` are the real parts of i*psi.  ``zeros`` holds (-(b*0), a*0)
    for each (a, b) of ``parts``: the terms that a complex128 product by a
    real s + 0i adds to (a*s, b*s).  They only ever carry signed zeros, but
    a matrix dump prints those.  ``i_zeros`` holds the same for ``i_parts``.
    Both are computed once per state, not once per column.
    """
    zero = parts.dtype.type(0)
    swap_zero = np.array([-zero, zero], dtype=parts.dtype)
    i_parts = _times_i(parts, 1, np.empty_like(parts))
    return parts, i_parts, parts[..., ::-1] * swap_zero, i_parts[..., ::-1] * swap_zero


def _write_triple(operands: tuple, k: int, out: np.ndarray) -> np.ndarray:
    """Write the z, y and x generators of qubit k on psi to ``out[0:3]``; return ``out``.

    z is i*psi times (-1)**i_k, y is psi with bit k flipped times
    (-1)**i_k, and x is i*psi with bit k flipped; ``operands`` come from
    ``_operands``.
    """
    parts, i_parts, zeros, i_zeros = operands
    # (-1)**i_k, shaped to broadcast along qubit k's axis of the real parts
    signs = np.array([1, -1], dtype=parts.dtype).reshape((2,) + (1,) * (parts.ndim - k))
    z, y, x = out
    np.multiply(i_parts, signs, out=z)
    z += i_zeros
    np.multiply(np.flip(parts, k - 1), signs, out=y)
    y += np.flip(zeros, k - 1)
    np.copyto(x, np.flip(i_parts, k - 1))
    return out


def _apply(psi: StateVector, k: int, g: int):
    if not 1 <= k <= psi.n:
        raise ValueError(f"qubit index {k} out of range 1..{psi.n}")
    parts, scale = _real_parts(psi)
    triple = _write_triple(_operands(parts), k, np.empty((3,) + parts.shape, dtype=parts.dtype))
    return _amplitudes_of(triple[g], psi.mode, scale)


def apply_z(psi: StateVector, k: int):
    """Act with the z-generator (i*sigma_z) on qubit k; returns a bare vector."""
    return _apply(psi, k, 0)


def apply_y(psi: StateVector, k: int):
    """Act with the y-generator (i*sigma_y) on qubit k; returns a bare vector."""
    return _apply(psi, k, 1)


def apply_x(psi: StateVector, k: int):
    """Act with the x-generator (i*sigma_x) on qubit k; returns a bare vector."""
    return _apply(psi, k, 2)


def _triple_columns(k: int, n: int) -> tuple:
    """Column indices of qubit k's z, y, x generators in an n-qubit tangent matrix."""
    if not 1 <= k <= n:
        raise ValueError(f"qubit index {k} out of range 1..{n}")
    return (3 * k - 3, 3 * k - 2, 3 * k - 1)


@dataclass(frozen=True)
class TangentMatrix:
    """Generator actions on a state, column by column, plus -i psi.

    For qubit k (1-based), columns 3k-3, 3k-2, 3k-1 hold the z, y, x
    generator actions; column 3n holds -i psi.  The real rank of this
    matrix equals the orbit dimension of the state under the local
    unitary group, plus one.

    ``real`` is the matrix's real view, 2**(n+1) x (3n+1) and read-only:
    amplitude a + bi of basis code c fills rows 2c (a) and 2c+1 (b), so a
    column dot product is Re<u|v>.  It is float64 in float mode and holds
    Python ints in exact mode, every entry ``scale`` times the true one.
    ``ranks`` memoizes rank verdicts by ``(ColumnSelector, tol)``; see
    ``rank.real_rank``.  A bare rank that ``rank.span_dims`` reads from R
    alone, or inherits from a selection certified as full column rank, is
    not kept.  ``r_factor`` caches the (3n+1) x (3n+1)
    Householder R of ``real`` (``np.linalg.qr(real, mode="r")``), None
    until first needed.  A floating complement (``rank.complement_dim``,
    ``rank.complement_basis``) builds it at any n; floating rank verdicts
    build and read it only when ``real`` is at least twice as tall as it
    is wide (n >= 4).  ``gram`` caches the exact backend's counterpart,
    the integer Gram ``real.T @ real`` ((3n+1) x (3n+1) Python ints, entry
    (i, j) is ``scale**2`` times Re<column i|column j>), None until an
    exact query first needs it; see ``rank.exact_gram``.
    """

    state: StateVector
    real: np.ndarray
    scale: int
    ranks: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    r_factor: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    gram: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

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
        return _triple_columns(k, self.n)

    def column(self, j: int):
        """Column j as amplitudes: complex ndarray (float) or RationalComplex tuple (exact)."""
        return _amplitudes_of(self.real[:, j], self.mode, self.scale)

    @property
    def columns(self):
        """Every column: a 2**n x (3n+1) complex ndarray, or a tuple of column tuples."""
        cols = [self.column(j) for j in range(self.column_count)]
        return np.stack(cols, axis=1) if self.mode == FLOAT else tuple(cols)


def tangent_matrix(psi: StateVector) -> TangentMatrix:
    """Assemble every generator action on psi together with -i psi."""
    n = psi.n
    if n < 1:
        raise ValueError("tangent matrix needs at least one qubit")
    parts, scale = _real_parts(psi)
    # Column j is written to row j of one buffer; ``real`` is its transpose.
    buf = np.empty((3 * n + 1,) + parts.shape, dtype=parts.dtype)
    operands = _operands(parts)
    for k in range(1, n + 1):
        _write_triple(operands, k, buf[3 * (k - 1) : 3 * k])
    _times_i(parts, -1, buf[3 * n])
    real = buf.reshape(3 * n + 1, -1).T
    real.flags.writeable = False
    return TangentMatrix(state=psi, real=real, scale=scale)
