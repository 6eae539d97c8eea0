"""Generator actions on amplitudes and the orbit tangent matrix.

The su(2) basis used everywhere in this package is, per qubit,

    z-generator: i*sigma_z = [[ i, 0], [0, -i]]
    y-generator: i*sigma_y = [[ 0, 1], [-1, 0]]
    x-generator: i*sigma_x = [[ 0, i], [ i, 0]]

Acting on qubit k of psi = sum_I c_I |I>, the coefficient of |I> becomes

    z:  i * (-1)**i_k * c_I
    y:  (-1)**i_k * c_{I with bit k flipped}
    x:  i * c_{I with bit k flipped}

One routine, ``_write_rows``, computes all three, for every qubit at
once, on the state's real parts, the (2,)*n + (2,) array that every
``StateVector`` holds (float64 over scale 1, or Python ints over the
state's common denominator): axis k-1 is qubit k's bit and the last axis
is (re, im).  The tangent matrix reads that array as it is, with no
per-amplitude conversion.  Multiplying by i acts on the last axis.  Read
as one (re, im) row per basis code, the array gives the rows of any set
of codes by one gather, and flipping bit k is a gather at the codes with
bit k flipped; where (-1)**i_k is -1 the gather reads a copy of the parts
times -1 (``_operands``).  The same numpy
operations run on float64 arrays, on int64 arrays and on object arrays
of Python ints, so both backends share the routine, and no Kronecker
products are ever built.

Row (c, part) of column (k, a) reads psi at c or at c with bit k
flipped, and the last column reads psi at c.  So the rows of a code c
are zero in every column unless psi is nonzero at c or at one of its n
single-bit flips: c is then *live* (``live_codes``, found once per
matrix: ``TangentMatrix.live``).  R (``streamed_r``) and the exact Gram
(``_streamed_gram``) are built from the live codes' rows alone, in
``_BLOCK_ROWS``-row blocks (``_row_blocks``), at most once per matrix,
which keeps what it built (``TangentMatrix.r_factor``, and the one
Gram array ``TangentMatrix.gram``).  Rows that are
zero in every column add nothing to ``real.T @ real``, so dropping them
changes no Gram and no singular value of any column subset.  A product
of m canonical pairs (n = 2m) has 2**m nonzero amplitudes and
(m + 1) 2**m live codes, of 4**m; when no amplitude is zero every code
is live, in order, and the blocks are those of the whole real view.
``TangentMatrix.columns`` generates any columns over every code, in
order, from blocks of every code's rows that hold only the asked qubits'
triples and the last column if asked, and keeps none of them.

A state whose live rows fill more than half a block and that is a
product of one- and two-qubit factors, as every state of minimal orbit
dimension is, gets R without streaming (``_product_r``): its tangent
vectors lie in a space of 1 + sum over factors F of 2**|F| complex
dimensions, so R is read from a matrix of that many (re, im) row pairs.
Past half a block that matrix's QR, with the split that finds its
factors, costs less than streaming the live rows; at half a block or
fewer streaming costs less.  The split proposes each pair's partner in
one pass over the state and confirms that one candidate
(``_split_product``), so a state that is no product is refused after one
pair test.  It also gives psi's overlap c with the product of its unit
factors and psi's distance from c times that product, without building
the product.  Each factor is read from its block of amplitudes, not from
the reduced Gram that proposed it, so its rounding does not grow with n.

Any other state past ``_SAMPLE_PAST_ROWS`` live rows takes a row sample
before R: the rows of ``_SAMPLE_CODES`` fixed codes, spread over every bit
by a golden-ratio hash (``_sample``), written by ``_write_rows`` from the
parts of the codes they read alone, and their smallest singular value
(``TangentMatrix.sample_sigma``).  The rank module reads full column rank
of every selection from it when it clears a margin, and then no R is
built.  So R's routes run in order: the product split, then the sample,
then the stream.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .lu import GENERATORS
from .states import EXACT, StateVector, _amplitudes_of, _qubit
from .tolerance import INNER_PRODUCT_ATOL, PRODUCT_RESIDUAL


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
    """``(parts, i_parts, signed, i_signed)``, one (re, im) row per basis code: what ``_write_rows`` reads.

    ``i_parts`` are the real parts of i*psi.  ``signed`` holds psi's parts
    times +1, then times -1, each plus (-(b*0), a*0) for its (a, b): the
    terms that a complex128 product by a real s + 0i adds to (a*s, b*s).
    They only ever carry signed zeros, but a matrix dump prints those.  Its
    second half starts 2**n rows in.  ``i_signed`` holds the same for
    ``i_parts``.  All four are computed once per state, not once per
    column or block.
    """
    parts = parts.reshape(-1, 2)
    zero = parts.dtype.type(0)
    i_parts = _times_i(parts, 1, np.empty_like(parts))
    signed = np.empty((2, 2) + parts.shape, dtype=parts.dtype)
    zeros = np.empty_like(parts)
    for p, out in zip((parts, i_parts), signed):
        np.multiply(p[:, 1], -zero, out=zeros[:, 0])
        np.multiply(p[:, 0], zero, out=zeros[:, 1])
        # p * 1 + zeros is p + zeros, and p * -1 + zeros is zeros - p, bit for bit
        np.add(p, zeros, out=out[0])
        np.subtract(zeros, p, out=out[1])
    return parts, i_parts, signed[0].reshape(-1, 2), signed[1].reshape(-1, 2)


@functools.lru_cache(maxsize=None)
def _qubit_bits(n: int) -> np.ndarray:
    """Each qubit's bit in a basis code, one row per qubit (qubit k is bit n - k), read-only."""
    bits = 1 << (n - 1 - np.arange(n))[:, None]
    bits.flags.writeable = False
    return bits


def live_codes(parts: np.ndarray) -> np.ndarray:
    """The basis codes, ascending, whose rows of the real view are not zero in every column.

    Those where psi, given by its ``parts``, is nonzero, and their
    single-bit flips (module docstring): every code, after one count,
    when no part is zero.
    """
    flat = parts.reshape(-1, 2)
    if np.count_nonzero(flat) == flat.size:  # no part is zero
        return np.arange(len(flat))
    support = np.flatnonzero((flat[:, 0] != 0) | (flat[:, 1] != 0))
    live = np.zeros(len(flat), dtype=bool)
    live[support] = True
    live[support ^ _qubit_bits(parts.ndim - 1)] = True
    return np.flatnonzero(live)


def _write_rows(operands: tuple, codes: np.ndarray, out: np.ndarray, bits=None, at=None) -> np.ndarray:
    """Write the rows of basis ``codes`` of tangent-matrix columns to ``out``; return ``out``.

    The columns are the triples of the qubits whose bits are ``bits``, one
    row each (every qubit's by default, from ``_qubit_bits``), the i-th
    qubit's z, y and x in rows 3i, 3i + 1 and 3i + 2, and then the last
    column when ``out`` has a row more.  By default ``out`` thus holds
    column j in row j.  The (re, im) of ``codes[i]`` go to positions 2i and
    2i + 1.  For qubit k, z is i*psi times (-1)**i_k, y is psi with bit k
    flipped times (-1)**i_k, and x is i*psi with bit k flipped: each is
    one gather of ``operands`` (``_operands``), for every qubit at once, the
    sign read from the half of ``i_signed`` or ``signed`` that holds it.
    ``operands`` hold one row per basis code, unless ``at`` gives where they
    hold ``codes`` and their flips by ``bits``, as two index arrays.
    """
    parts, i_parts, signed, i_signed = operands
    if bits is None:
        bits = _qubit_bits(len(parts).bit_length() - 1)
    m = len(bits)
    here, flips = (codes, codes ^ bits) if at is None else at
    if m:
        # where bit k is set, read the halves of ``signed`` and ``i_signed`` times -1
        minus = np.where(codes & bits, len(parts), 0)
        z, y, x = out[: 3 * m].reshape(m, 3, -1).transpose(1, 0, 2)
        np.copyto(z, i_signed.take(here + minus, axis=0).reshape(m, -1))
        np.copyto(y, signed.take(flips + minus, axis=0).reshape(m, -1))
        np.copyto(x, i_parts.take(flips, axis=0).reshape(m, -1))
    if len(out) > 3 * m:
        _times_i(parts.take(here, axis=0), -1, out[3 * m].reshape(-1, 2))
    return out


def _row_blocks(parts: np.ndarray, codes: np.ndarray, bits=None, last: bool = True):
    """Yield the tangent matrix's rows at ``codes``, ``_BLOCK_ROWS`` rows a block, as ``_write_rows`` writes them.

    Every column by default; else the triples of the qubits whose bits
    are ``bits`` and the last column if ``last``.  Each block is written
    over the last, so only one is held at a time.
    """
    operands = _operands(parts)
    step = _BLOCK_ROWS >> 1
    height = 3 * (parts.ndim - 1 if bits is None else len(bits)) + last
    buf = np.empty((height, 2 * min(step, codes.size)), dtype=parts.dtype)
    for start in range(0, codes.size, step):
        block = codes[start : start + step]
        yield _write_rows(operands, block, buf[:, : 2 * block.size], bits)


_INT64_MAX = int(np.iinfo(np.int64).max)


def _int64_parts(parts: np.ndarray) -> Optional[np.ndarray]:
    """Exact ``parts`` as int64, or None if the int64 Gram could overflow.

    Every entry of the real view is some part up to sign, so each partial
    sum of a Gram entry is at most ``rows * max|part|**2`` in magnitude,
    rows = ``parts.size``.
    """
    try:
        ints = parts.astype(np.int64)
    except OverflowError:
        return None
    peak = max(int(ints.max()), -int(ints.min()))
    if parts.size * peak * peak > _INT64_MAX:
        return None
    return ints


def _streamed_gram(tm: TangentMatrix) -> np.ndarray:
    """The exact Gram: the sum of ``block.T @ block`` over row blocks of the live codes' rows.

    The blocks are those of ``streamed_r`` (``_row_blocks``), generated
    from ``tm.parts`` in int64 where ``_int64_parts`` allows it and in
    Python ints otherwise; one is held at a time.  The rows left out are
    zero in every column.
    """
    ints = _int64_parts(tm.parts)
    parts = tm.parts if ints is None else ints
    total = 0
    for block in _row_blocks(parts, tm.live):
        # row j of the block is column j of the real view
        total = total + block @ block.T
    return total


def _triple_columns(k: int, n: int) -> tuple:
    """Column indices of qubit k's z, y, x generators in an n-qubit tangent matrix.

    k must be an integer of 1..n (``states._qubit``), else ValueError.
    """
    k = _qubit(k, n)
    return (3 * k - 3, 3 * k - 2, 3 * k - 1)


#: Rows of the real view that ``streamed_r``, the exact Gram and ``columns`` generate
#: at a time: a multiple of four, so a block holds whole codes and splits into
#: quarters.  At 2048 rows a block of up to 64 columns (n <= 21) takes at most
#: 1 MiB, and a matrix with n <= 10 is one block.
_BLOCK_ROWS = 2048

#: Codes in the row sample that may certify a state's full column rank
#: (``TangentMatrix.sample_sigma``): 256 rows, gathered and decomposed in
#: 0.18-0.56 ms at n = 10-20 on one BLAS thread.  A Haar state's sample
#: keeps its smallest singular value at 0.005-0.24 there, far above the
#: certificate's threshold, under 8e-7 at the default tol.
_SAMPLE_CODES = 128

#: Live rows past which a state whose product split is refused takes the
#: sample before it streams R.  Measured on one BLAS thread: at 2048 rows
#: (n = 10, every code live) the sample takes 0.18 ms against the
#: stream's 0.89, and a state it refuses pays 34% on top of its stream,
#: 8% at n = 12.  At 1024 rows it would save 0.1 ms of a 0.27 ms stream
#: and add 60% to a refused one; at 512 rows the two cost the same.
_SAMPLE_PAST_ROWS = 1024

#: 2**64 over the golden ratio, rounded to odd: the multiplier of the sample's hash.
_GOLDEN_HASH = np.uint64(0x9E3779B97F4A7C15)


@functools.lru_cache(maxsize=None)
def _sample(n: int) -> tuple:
    """``(codes, held, at)``: the sampled codes of n qubits, what their rows read, and where, read-only.

    The codes are ``(j * _GOLDEN_HASH mod 2**64) >> (64 - n)`` for
    j < ``_SAMPLE_CODES``, ascending and without repeats: Fibonacci hashing
    spreads them over every bit.  A block of consecutive codes would fix
    the leading bits, making those qubits' z columns parallel to the last
    column on the sample.  ``held`` holds the codes and their n single-bit
    flips, ascending: the only codes whose parts the sample's rows read.
    ``at`` is where ``held`` has the codes and their flips (``_write_rows``).
    """
    j = np.arange(_SAMPLE_CODES, dtype=np.uint64)
    codes = np.unique((j * _GOLDEN_HASH) >> np.uint64(64 - n)).astype(np.intp)
    flips = codes ^ _qubit_bits(n)
    held = np.union1d(codes, flips)
    at = (np.searchsorted(held, codes), np.searchsorted(held, flips))
    for array in (codes, held, *at):
        array.flags.writeable = False
    return codes, held, at


def _sample_sigma(parts: np.ndarray) -> float:
    """The smallest singular value of the real view's rows at the sampled codes (``_sample``).

    Only the parts of the codes those rows read are gathered, and
    ``_operands`` of them alone are formed: the cost does not grow with
    the state.
    """
    n = parts.ndim - 1
    codes, held, at = _sample(n)
    operands = _operands(parts.reshape(-1, 2)[held])
    rows = _write_rows(operands, codes, np.empty((3 * n + 1, 2 * codes.size)), _qubit_bits(n), at)
    return float(np.linalg.svd(rows.T, compute_uv=False)[-1])


@dataclass(frozen=True)
class TangentMatrix:
    """Generator actions on a state, column by column, plus -i psi.

    For qubit k (1-based), columns 3k-3, 3k-2, 3k-1 hold the z, y, x
    generator actions; column 3n holds -i psi.  The real rank of this
    matrix equals the orbit dimension of the state under the local
    unitary group, plus one.

    ``parts`` and ``scale`` are psi's own (``StateVector.parts``, read as
    they are); every column is generated from ``parts``.  The matrix's
    real view is 2**(n+1) x (3n+1): amplitude a + bi of basis code c fills
    rows 2c (a) and 2c+1 (b), so a column dot product is Re<u|v>.  It is
    float64 in float mode and holds Python ints in exact mode, every entry
    ``scale`` times the true one.  No attribute holds it: ``columns``
    generates the columns a reader asks for, and only what needs their
    rows asks (floating verdicts that R cannot certify, column dumps and
    the ``twocommonstrong`` column checks).

    Every other reader reads one (3n+1)-square factor of the real view,
    built on first read and then held: ``r_factor`` on the floating
    backend, and ``gram``, one array on both, from R on the floating
    backend and streamed from the rows on the exact one.
    ``ranks`` memoizes rank verdicts by
    ``(ColumnSelector, tol)``; see ``rank.real_rank``.  A bare rank that
    ``rank.span_dims`` reads from R alone is not kept, nor is a verdict
    inherited from a selection certified as full column rank.
    """

    state: StateVector
    ranks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @functools.cached_property
    def live(self) -> np.ndarray:
        """The live codes of ``parts`` (``live_codes``), found once: what every route to R or the Gram reads."""
        return live_codes(self.parts)

    @functools.cached_property
    def product_r(self) -> Optional[np.ndarray]:
        """R built from psi's one- and two-qubit factors (``_product_r``), or None; tried once."""
        return _product_r(self)

    @functools.cached_property
    def sample_sigma(self) -> float:
        """The smallest singular value of a fixed sample of the real view's rows, found once; floating only.

        Taken (``_sample_sigma``) only when the live rows number more than
        ``_SAMPLE_PAST_ROWS`` and ``product_r`` is None: 0.0 otherwise.  A
        subset of rows bounds every singular value of the real view from
        below, so the rank module reads full column rank from it, with no R,
        when it clears a margin (``rank`` module docstring).
        """
        if 2 * self.live.size <= _SAMPLE_PAST_ROWS or self.product_r is not None:
            return 0.0
        return _sample_sigma(self.parts)

    @functools.cached_property
    def r_factor(self) -> np.ndarray:
        """An upper-triangular R with ``real = Q R``, Q orthonormal, built once; floating backend only.

        The routes, in order.  A state whose live rows fill more than half a
        ``_BLOCK_ROWS`` block and that is, to within ``PRODUCT_RESIDUAL``, a
        product of one- and two-qubit factors gets R from a small matrix
        with the real view's Gram, 2 + sum of 2**(|F|+1) rows over its
        factors F (``product_r``); past half a block that costs less than
        streaming.  The split tests one proposed partner per paired qubit,
        so any other state past half a block pays one pair test.  Past
        ``_SAMPLE_PAST_ROWS`` live rows, such a state's verdicts next try
        ``sample_sigma``, and one it certifies as full column rank reads no
        R at all.  Every other R is ``streamed_r``: streamed from ``parts``
        in row blocks of the live codes' rows (``live``; the others are
        zero).  It serves the verdicts the sample cannot certify, and
        complements and the float Gram.  Either way a floating verdict that
        R certifies generates no column, and a sparse state's R costs what
        its live rows cost.
        """
        r = self.product_r
        return streamed_r(self) if r is None else r

    @functools.cached_property
    def gram(self) -> np.ndarray:
        """The Gram ``real.T @ real`` as a (3n+1)-square array, built once: the one Gram every reader indexes.

        Entry (i, j) is ``scale**2`` times Re<column i|column j>.  Exact:
        summed over the live rows' blocks (``_streamed_gram``), int64 where
        no partial sum can overflow and Python ints otherwise; every exact
        verdict and complement reads it.  Floating: ``R.T @ R`` from
        ``r_factor``, with no rows of the real view generated.  Squaring
        the spectrum lifts its noise floor above the rank cutoff, so no
        floating verdict is read from it but the rank module's one-sided
        certificate of full column rank for narrow selections, which allows
        for its rounding (``rank`` module docstring); the verify oracles
        that read single entries allow an absolute slack.
        """
        if self.mode == EXACT:
            return _streamed_gram(self)
        r = self.r_factor
        return r.T @ r

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

    def columns(self, cols) -> np.ndarray:
        """The real view's columns ``cols``, in that order, over every code: 2**(n+1) x len(cols).

        ``cols`` follows numpy's index rules.  Each block of every code's
        rows (``_row_blocks``) holds the triples of the qubits asked and the
        last column if it is asked, nothing else; one block is held at a
        time, and nothing is kept: each call generates them again.
        """
        n, parts = self.n, self.parts
        # the last column is qubit n's first
        qubit, kind = np.divmod(np.arange(self.column_count)[list(cols)], 3)
        asked = np.zeros(n + 1, dtype=bool)
        asked[qubit] = True
        # a block holds the asked qubits' triples in qubit order, then the last column
        rows = 3 * (np.cumsum(asked) - 1)[qubit] + kind
        blocks = _row_blocks(parts, np.arange(parts.size >> 1), _qubit_bits(n)[asked[:n]], asked[n])
        buf = np.empty((len(rows), parts.size), dtype=parts.dtype)
        start = 0
        for block in blocks:
            buf[:, start : start + block.shape[1]] = block[rows]
            start += block.shape[1]
        # each column was written as a row: the columns are the transpose
        return buf.T

    def triple_indices(self, k: int) -> tuple:
        """Column indices of qubit k's generator triple."""
        return _triple_columns(k, self.n)

    def column(self, j: int):
        """Column j as amplitudes: complex ndarray (float) or (Fraction, Fraction) pairs (exact)."""
        return _amplitudes_of(self.columns([j])[:, 0], self.scale)


def tangent_matrix(psi: StateVector) -> TangentMatrix:
    """Every generator action on psi together with -i psi, generated when first read."""
    if psi.n < 1:
        raise ValueError("tangent matrix needs at least one qubit")
    return TangentMatrix(state=psi)


def streamed_r(tm: TangentMatrix) -> np.ndarray:
    """A square upper-triangular R with ``real = Q R``, built from row blocks of the real view.

    Tall-skinny QR (Demmel, Grigori, Hoemmen and Langou, SIAM J. Sci.
    Comput. 34 (2012)) of the live codes' rows (``TangentMatrix.live``): each
    ``_BLOCK_ROWS``-row block is generated from ``tm.parts`` and
    Householder-factored while it is in cache, and the stacked block Rs
    are factored again, whenever they reach a block's height and at the
    end.  The rows left out are zero, so ``real.T @ real = R.T @ R`` still
    holds.  Only the state, its operands and one block are held at a time.
    With fewer live rows than columns R gets zero rows, to be square.
    """
    width = tm.column_count
    stack: list = []
    for block in _row_blocks(tm.parts, tm.live):
        stack.append(_block_r(block.T))
        if sum(len(r) for r in stack) >= _BLOCK_ROWS:
            stack = [np.linalg.qr(np.vstack(stack), mode="r")]
    r = stack[0] if len(stack) == 1 else np.linalg.qr(np.vstack(stack), mode="r")
    return np.vstack([r, np.zeros((width - len(r), width))]) if len(r) < width else r


def _block_r(block: np.ndarray) -> np.ndarray:
    """R of one block, factored as four stacked quarters and then their stacked Rs.

    ``np.linalg.qr`` copies its input and allocates a work buffer of the
    size of one matrix per call: a quarter's buffer (164 KiB at 2048 rows
    and 40 columns) is reused by the allocator from block to block, where
    a whole block's was returned to the system and faulted back in.  A
    block of an odd number of codes, the last of a state's live codes, is
    factored whole.
    """
    width = block.shape[1]
    if len(block) % 4:
        return np.linalg.qr(block, mode="r")
    quarters = np.linalg.qr(block.reshape(4, -1, width), mode="r")
    return np.linalg.qr(quarters.reshape(-1, width), mode="r")


def _product_r(tm: TangentMatrix) -> Optional[np.ndarray]:
    """R of the real view of a product of one- and two-qubit factors, from a small matrix; else None.

    None unless the live codes' rows fill more than half a ``_BLOCK_ROWS``
    block (at half a block or fewer, streaming them costs less), psi
    splits into such factors (``_split_product``), and psi lies within
    ``PRODUCT_RESIDUAL`` of c times the product of its unit factors, c
    their overlap with psi.  The split gives c and that residual, measured
    as differences, not from ``1 - |c|**2``, so nothing is squared.  Then
    R is the QR of ``_product_matrix``, which has the Gram of the real
    view of c times that product.  The tangent matrix is linear in psi and
    each column is a unitary acting on psi, so the two real views differ
    by at most sqrt(3n + 1) * ``PRODUCT_RESIDUAL`` in norm.
    """
    n = tm.n
    if 2 * tm.live.size <= _BLOCK_ROWS // 2:
        return None
    split = _split_product(tm.state.vector.reshape((2,) * n))
    if split is None or split[2] > PRODUCT_RESIDUAL:
        return None
    factors, c, _ = split
    return np.linalg.qr(_product_matrix(factors, c, n), mode="r")


def _split_product(psi: np.ndarray) -> Optional[tuple]:
    """Split an amplitude tensor into factors of one or two qubits: ``([(qubits, f)], c, residual)``, or None.

    The qubits are walked in order.  The leading qubit q of what is left
    is a factor alone when its 2 x 2 reduced Gram has rank one.  Else
    ``_partner`` proposes one later qubit p, in one pass over what is
    left, and (q, p) is a factor when its 4 x 4 reduced Gram has rank
    one; in a product, p is the only later qubit whose pair Gram with q
    does.  Returns None when some qubit is neither alone nor paired with
    its proposed partner, after one pair test.  The Grams only propose the
    split; each factor f is read from its block (``_rank_one_factor``), and
    what is left is f's conjugate contracted with the block.

    What is left after the last factor is c = <P|psi>, P the product of
    the unit factors.  Each step's block B splits into f (f^dagger B) and
    a remainder orthogonal to f, and psi - c P is the sum of the
    remainders, each tensored with the factors before it: mutually
    orthogonal, so ``residual``, |psi - c P|, is the root of the sum of
    their squared norms, each measured as the norm of a difference.
    """
    qubits = list(range(1, psi.ndim + 1))
    rest, factors, remainders = psi, [], []
    while qubits:
        block = rest.reshape(2, -1)
        f = _rank_one_factor(block)
        partner = 0
        if f is None and len(qubits) > 1:
            partner = _partner(rest) if len(qubits) > 2 else 1
            block = np.moveaxis(rest, partner, 1).reshape(4, -1)
            f = _rank_one_factor(block)
        if f is None:
            return None
        members = (qubits[0], qubits[partner]) if partner else (qubits[0],)
        qubits = [q for q in qubits if q not in members]
        factors.append((members, f))
        rest = f.conj() @ block
        # f times rest as a matmul: a broadcast product also allocates iterator buffers
        remainder = f[:, None] @ rest[None]
        np.subtract(block, remainder, out=remainder)
        # read as (re, im) float64s: one contiguous dot, not a complex norm's two strided ones
        remainders.append(np.linalg.norm(remainder.view(np.float64)))
        rest = rest.reshape((2,) * len(qubits))
    return factors, rest[()], math.hypot(*remainders)


def _partner(rest: np.ndarray) -> int:
    """The later axis of ``rest`` whose qubit is the leading qubit's partner, if it has one.

    Weight ``rest`` by a fixed product vector w over the later axes
    (``_partner_weights``), and sum the weighted entries of each of the
    leading qubit's two rows with axis j's bit at 0 and at 1: one 2 x 2
    matrix M_j per axis.  If the leading qubit and the qubit of axis p
    form a factor g, M_p is g times one number (the weighted sum of the
    other factors), its columns times axis p's weights; on every other
    axis both rows of M_j are multiples of one vector, so det M_j = 0.
    The axis whose rows are most independent, |det M_j| / |M_j|**2
    largest, is proposed.  The later axes are split into a leading and a
    trailing half, and each is contracted with its part of w by one
    matrix product, so the pass takes four small products, not a step
    per axis.
    """
    c_high, c_low = _partner_weights(rest.ndim - 1)
    t = rest.reshape(2, len(c_high), len(c_low))
    # bit-one sums of each leading axis, after the total; then of each trailing axis
    lead = (t @ c_low[:, 0]) @ c_high
    trail = (c_high[:, 0] @ t) @ c_low[:, 1:]
    ones = np.concatenate((lead[:, 1:], trail), axis=1)
    zeros = lead[:, :1] - ones
    det = np.abs(zeros[0] * ones[1] - ones[0] * zeros[1])
    size = (np.abs(zeros) ** 2 + np.abs(ones) ** 2).sum(axis=0)
    return 1 + int(np.argmax(det / np.maximum(size, np.finfo(np.float64).tiny)))


#: The golden angle, pi (3 - sqrt 5): the phase step of ``_partner_weights``.
_GOLDEN_ANGLE = np.pi * (3 - np.sqrt(5))


@functools.lru_cache(maxsize=None)
def _partner_weights(m: int) -> tuple:
    """``(c_high, c_low)``: ``_partner``'s weights on m axes, as two read-only matrices.

    Axis k (1-based) is weighted by (1, e**(i k phi)), phi the golden
    angle, whose ratio to pi is irrational: no two axes have the same
    weight, so a singlet's weighted sum (1, z) x (1, z') . (0, 1, -1, 0)
    = z' - z is never zero, and no two multiply to -1, so a canonical
    pair's 1 + z z' is never zero either.  The first m // 2 axes form
    the leading half.  Each half's matrix has one row per setting of its
    bits, holding that setting's weight and then that weight times each
    of its axes' bits.
    """
    high = m // 2
    mats = []
    for axes in (np.arange(1, high + 1), np.arange(high + 1, m + 1)):
        bits = (np.arange(1 << len(axes))[:, None] >> np.arange(len(axes))[::-1]) & 1
        weight = np.where(bits, np.exp(1j * _GOLDEN_ANGLE * axes), 1).prod(axis=1)
        mat = weight[:, None] * np.hstack([np.ones((len(bits), 1)), bits])
        mat.flags.writeable = False
        mats.append(mat)
    return tuple(mats)


def _rank_one_factor(block: np.ndarray) -> Optional[np.ndarray]:
    """The unit factor f of a block B = f r^T of rank one, or None.

    B has rank one when its Gram G = B B^dagger does: when tr(G)**2 -
    |G|_F**2, twice the sum of G's eigenvalues' pairwise products, is at
    most ``INNER_PRODUCT_ATOL`` times tr(G)**2.  Every column of such a B
    is a multiple of f, so f is read from B, not from G, whose entries sum
    2**(n-2) or more terms and so carry rounding that grows with n: f is
    B's column of largest norm, normalized.  G's diagonal holds B's
    squared row norms, and in the row k of the largest, |B[k, j]| =
    |f_k| |r_j| is largest in that column.
    """
    gram = block @ block.conj().T
    diagonal = gram.diagonal().real
    trace = diagonal.sum()
    if not trace > 0 or trace**2 - np.vdot(gram, gram).real > INNER_PRODUCT_ATOL * trace**2:
        return None
    column = block[:, np.argmax(np.abs(block[np.argmax(diagonal)]))]
    return column / np.linalg.norm(column)


@functools.lru_cache(maxsize=None)
def _factor_generators(width: int) -> np.ndarray:
    """The z, y, x generators of each qubit of a ``width``-qubit factor, in qubit order, read-only."""
    ops = np.stack(GENERATORS)
    if width == 2:
        eye = np.eye(2)
        ops = np.stack([np.kron(g, eye) for g in ops] + [np.kron(eye, g) for g in ops])
    ops.flags.writeable = False
    return ops


def _product_matrix(factors: list, c: complex, n: int) -> np.ndarray:
    """A real matrix with the Gram of the real view of c times the product of unit ``factors``.

    Write P for the product, and P_F for the product of the factors but
    f_F.  The vectors of c P's tangent matrix lie in the span of P and of
    h P_F, h orthogonal to f_F, for every factor F; these spaces are
    mutually orthogonal, so their coordinates are an isometry: one shared
    complex coordinate for P, and for each F a block of 2**|F| holding h.
    Generator G on a qubit of F maps c P to c <f_F, G f_F> P plus
    c (G f_F - <f_F, G f_F> f_F) P_F, and the last column, -i c P, is
    -i c in the shared coordinate.  Each complex coordinate gives a (re,
    im) pair of rows, as in the real view, so the Gram (of Re<u|v>) is
    the same.  The matrix has at least 4n + 2 rows, so its R is square.
    """
    width = 3 * n + 1
    mat = np.zeros((1 + sum(f.size for _, f in factors), width), dtype=np.complex128)
    mat[0, -1] = -1j * c
    start = 1
    for size in (1, 2):
        group = [(qubits, f) for qubits, f in factors if len(qubits) == size]
        if not group:
            continue
        fs = np.stack([f for _, f in group])
        cols = (3 * np.array([qubits for qubits, _ in group]) - 3)[..., None] + np.arange(3)
        cols = cols.reshape(len(group), -1)
        moved = np.einsum("gij,fj->fgi", _factor_generators(size), fs)
        mean = np.einsum("fgi,fi->fg", moved, fs.conj())
        mat[0, cols] = c * mean
        rows = start + np.arange(fs.size).reshape(len(group), 1, -1)
        mat[rows, cols[..., None]] = c * (moved - mean[..., None] * fs[:, None])
        start += fs.size
    return np.stack([mat.real, mat.imag], axis=1).reshape(-1, width)
