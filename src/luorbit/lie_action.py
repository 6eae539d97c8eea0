"""Generator actions on amplitudes and the orbit tangent matrix.

The su(2) basis used everywhere in this package is, per qubit,

    z-generator: i*sigma_z = [[ i, 0], [0, -i]]
    y-generator: i*sigma_y = [[ 0, 1], [-1, 0]]
    x-generator: i*sigma_x = [[ 0, i], [ i, 0]]

Acting on qubit k of psi = sum_I c_I |I>, the coefficient of |I> becomes

    z:  i * (-1)**i_k * c_I
    y:  (-1)**i_k * c_{I with bit k flipped}
    x:  i * c_{I with bit k flipped}

One routine, ``_write_triple``, computes all three on the state's real
parts, the (2,)*n + (2,) array that every ``StateVector`` holds (float64
over scale 1, or Python ints over the state's common denominator): axis
k-1 is qubit k's bit and the last axis is (re, im).  The tangent matrix
reads that array as it is, with no per-amplitude conversion.  Multiplying
by i acts on the last axis.  Flattened, the array has position
``2 * code + part``, so flipping bit k is a gather at the position with
one bit flipped, and (-1)**i_k a +-1 vector over the positions
(``_slab_flips``).  ``_write_block`` writes one row block of every
column: the rows where the leading qubits have fixed bits, a slab of the
array, in which every other qubit's flip is one gather.  Flipping a
leading qubit reads the partner slab instead.  The same numpy operations
run on float64 arrays, on int64 arrays and on object arrays of Python
ints, so both backends share the routines, and no Kronecker products are
ever built.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .states import StateVector, _amplitudes_of


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


@functools.lru_cache(maxsize=None)
def _slab_flips(m: int, dtype) -> tuple:
    """``(index, signs)`` that flip each qubit of an m-qubit slab, read-only.

    Over the slab's real parts, flattened (position ``2 * code + part``),
    row j-1 of ``index`` holds every position with qubit j's bit flipped
    and the same row of ``signs`` holds (-1)**i_j there: one row per
    qubit, 2**(m+1) columns.  Kept per slab size and dtype: a block holds
    at most ``_BLOCK_ROWS`` rows, so m stays at most log2(_BLOCK_ROWS) - 1.
    """
    rows = np.arange(2 << m)
    bit = 1 << (m - np.arange(m))[:, None]  # qubit j is bit m - j + 1
    index, signs = rows ^ bit, np.where(rows & bit, -1, 1).astype(dtype)
    index.flags.writeable = signs.flags.writeable = False
    return index, signs


def _write_triple(own: tuple, partner: tuple, signs, out: np.ndarray) -> np.ndarray:
    """Write z, y and x generators on psi to ``out[0]``, ``out[1]``, ``out[2]``; return ``out``.

    For qubit k, z is i*psi times (-1)**i_k, y is psi with bit k flipped
    times (-1)**i_k, and x is i*psi with bit k flipped.  ``own`` are the
    flattened ``_operands`` of the rows written, ``partner`` their first
    three with bit k flipped, and ``signs`` is (-1)**i_k on the rows
    written (one number where bit k is fixed across them).  Rows of
    ``partner``, ``signs`` and the three outputs may stack several qubits.
    """
    _, i_parts, _, i_zeros = own
    p_parts, p_i_parts, p_zeros = partner
    z, y, x = out
    np.multiply(i_parts, signs, out=z)
    z += i_zeros
    np.multiply(p_parts, signs, out=y)
    y += p_zeros
    np.copyto(x, p_i_parts)
    return out


def _lead(n: int) -> int:
    """How many leading qubits' bits pick a row block of an n-qubit real view."""
    return max(0, n + 1 - (_BLOCK_ROWS.bit_length() - 1))


def _write_block(operands: tuple, lead: int, block: int, out: np.ndarray) -> np.ndarray:
    """Write one row block of every column of the tangent matrix to ``out``; return ``out``.

    The block holds the rows whose leading ``lead`` qubits have the bits
    of ``block`` (qubit 1 most significant), in real-view order; ``out``
    holds column j of the block in row j.  The rows are a slab of each
    operand.  The other qubits flip within the slab, all at once
    (``_slab_flips``); flipping a leading qubit reads the partner slab,
    and its sign is one number on the whole block.
    """
    n = operands[0].ndim - 1
    bits = tuple((block >> (lead - 1 - a)) & 1 for a in range(lead))
    slabs = tuple(op[bits] for op in operands)
    own = tuple(slab.reshape(-1) for slab in slabs)
    index, signs = _slab_flips(n - lead, operands[0].dtype)
    triples = out[: 3 * n].reshape(n, 3, -1)
    partner = tuple(op[index] for op in own[:3])
    _write_triple(own, partner, signs, triples[lead:].transpose(1, 0, 2))
    for k in range(1, lead + 1):
        flip = bits[: k - 1] + (1 - bits[k - 1],) + bits[k:]
        partner = tuple(op[flip].reshape(-1) for op in operands[:3])
        _write_triple(own, partner, signs.dtype.type(1 - 2 * bits[k - 1]), triples[k - 1])
    _times_i(slabs[0], -1, out[3 * n].reshape(slabs[0].shape))
    return out


def _triple_columns(k: int, n: int) -> tuple:
    """Column indices of qubit k's z, y, x generators in an n-qubit tangent matrix."""
    if not 1 <= k <= n:
        raise ValueError(f"qubit index {k} out of range 1..{n}")
    return (3 * k - 3, 3 * k - 2, 3 * k - 1)


#: Rows of the real view that ``streamed_r`` generates and factors at a time:
#: a power of two, so the leading qubits' bits pick each block.  At 2048 rows
#: a block of up to 64 columns (n <= 21) takes at most 1 MiB, and a matrix
#: with n <= 10 is one block.
_BLOCK_ROWS = 2048


@dataclass(frozen=True)
class TangentMatrix:
    """Generator actions on a state, column by column, plus -i psi.

    For qubit k (1-based), columns 3k-3, 3k-2, 3k-1 hold the z, y, x
    generator actions; column 3n holds -i psi.  The real rank of this
    matrix equals the orbit dimension of the state under the local
    unitary group, plus one.

    ``parts`` and ``scale`` are psi's own (``StateVector.parts``, read as
    they are); every column is generated from ``parts``.  ``real`` is the
    matrix's real view, 2**(n+1) x (3n+1) and read-only: amplitude a + bi
    of basis code c fills rows 2c (a) and 2c+1 (b), so a column dot
    product is Re<u|v>.  It is float64 in float mode and holds Python ints
    in exact mode, every entry ``scale`` times the true one.  It is built
    on first read, and only what needs its rows reads it: floating
    verdicts at n <= 3 or that R cannot certify, complement vectors,
    column dumps and the verify column checks.

    ``r_factor`` caches a (3n+1) x (3n+1) triangular R with
    ``real = Q R``, Q orthonormal (``streamed_r``), None until a floating
    query first needs it.  It is streamed from ``parts`` in row blocks, so
    a floating verdict that R certifies never builds ``real``; a matrix of
    one block keeps that block as ``real``.  ``ranks`` memoizes rank
    verdicts by ``(ColumnSelector, tol)``; see ``rank.real_rank``.  A bare
    rank that ``rank.span_dims`` reads from R alone is not kept, nor is a
    verdict inherited from a selection certified as full column rank.  ``gram`` and
    ``gram_rows`` cache the exact backend's counterpart, the integer Gram
    ``real.T @ real`` ((3n+1) x (3n+1) Python ints, entry (i, j) is
    ``scale**2`` times Re<column i|column j>) as an array and as nested
    lists, None until an exact query first needs them.  It is summed over
    the row blocks that ``streamed_r`` uses, generated from ``parts`` in
    int64 where no sum can overflow, so the exact backend never builds
    ``real``; see ``rank.exact_gram``.
    """

    state: StateVector
    ranks: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    r_factor: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    gram: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    gram_rows: Optional[list] = field(default=None, init=False, repr=False, compare=False)
    _real: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.state.n

    @property
    def mode(self) -> str:
        return self.state.mode

    @property
    def parts(self) -> np.ndarray:
        return self.state.parts

    @property
    def scale(self) -> int:
        return self.state.scale

    @property
    def column_count(self) -> int:
        return 3 * self.n + 1

    @property
    def last_index(self) -> int:
        return 3 * self.n

    @property
    def real(self) -> np.ndarray:
        """The real view, generated block by block on first read."""
        if self._real is None:
            lead, parts = _lead(self.n), self.parts
            operands = _operands(parts)
            buf = np.empty((self.column_count, parts.size), dtype=parts.dtype)
            height = parts.size >> lead
            for b in range(1 << lead):
                _write_block(operands, lead, b, buf[:, b * height : (b + 1) * height])
            # column j was written to row j: ``real`` is the transpose
            real = buf.T
            real.flags.writeable = False
            object.__setattr__(self, "_real", real)
        return self._real

    def triple_indices(self, k: int) -> tuple:
        """Column indices of qubit k's generator triple."""
        return _triple_columns(k, self.n)

    def column(self, j: int):
        """Column j as amplitudes: complex ndarray (float) or (Fraction, Fraction) pairs (exact)."""
        return _amplitudes_of(self.real[:, j], self.scale)


def tangent_matrix(psi: StateVector) -> TangentMatrix:
    """Every generator action on psi together with -i psi, generated when first read."""
    if psi.n < 1:
        raise ValueError("tangent matrix needs at least one qubit")
    return TangentMatrix(state=psi)


def streamed_r(tm: TangentMatrix) -> np.ndarray:
    """A triangular R with ``tm.real = Q R``, built from row blocks of the real view.

    Tall-skinny QR (Demmel, Grigori, Hoemmen and Langou, SIAM J. Sci.
    Comput. 34 (2012)): each ``_BLOCK_ROWS``-row block is generated from
    ``tm.parts`` and Householder-factored while it is in cache, and the
    stacked block Rs are factored again, whenever they reach a block's
    height and at the end.  Only the state, its operands and one block are
    held at a time.  A real view of one block is built as ``tm.real`` and
    factored from there.
    """
    lead = _lead(tm.n)
    if lead == 0:
        return _block_r(tm.real)
    operands = _operands(tm.parts)
    buf = np.empty((tm.column_count, tm.parts.size >> lead), dtype=tm.parts.dtype)
    stack: list = []
    for b in range(1 << lead):
        stack.append(_block_r(_write_block(operands, lead, b, buf).T))
        if sum(len(r) for r in stack) >= _BLOCK_ROWS:
            stack = [np.linalg.qr(np.vstack(stack), mode="r")]
    return stack[0] if len(stack) == 1 else np.linalg.qr(np.vstack(stack), mode="r")


def _block_r(block: np.ndarray) -> np.ndarray:
    """R of one block, factored as four stacked quarters and then their stacked Rs.

    ``np.linalg.qr`` copies its input and allocates a work buffer of the
    size of one matrix per call: a quarter's buffer (164 KiB at 2048 rows
    and 40 columns) is reused by the allocator from block to block, where
    a whole block's was returned to the system and faulted back in.
    """
    width = block.shape[1]
    quarters = np.linalg.qr(block.reshape(4, -1, width), mode="r")
    return np.linalg.qr(quarters.reshape(-1, width), mode="r")
