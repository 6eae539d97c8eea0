"""n-qubit pure states with floating and exact-rational amplitude backends.

Conventions used throughout the package:

* Qubits are numbered 1..n and bit 1 is the most significant, so the basis
  label |i_1 i_2 ... i_n> corresponds to the integer code
  sum_k i_k * 2**(n-k).
* Every state is one tensor of real parts, ``parts``: a (2,)*n + (2,)
  array whose axis k-1 is qubit k's bit and whose last axis is (re, im),
  over one integer ``scale``.  Flattened, part p of basis code c sits at
  position 2c + p.
* Floating states are normalized when constructed: ``parts`` is a float64
  view of the unit-norm complex128 amplitudes, over scale 1.
* Exact states hold Python ints over a common denominator, the lcm of the
  amplitudes' reduced denominators, so the ints and ``scale`` share no
  factor.  They keep that (generally unnormalizable-in-rationals)
  representative and compute its squared norm only when asked; every rank
  computed from them is scale invariant, so nothing downstream needs the
  unit-norm representative.  Their amplitudes read back as
  (Fraction, Fraction) pairs.
* Products and contractions run on ``parts`` in both modes: as complex128
  products in float mode, bit for bit what numpy gives on the amplitudes,
  and as Gaussian-integer products in exact mode.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import re
import string
import sys
from fractions import Fraction
from typing import Optional

import numpy as np

from .rational import as_fraction, fraction_str
from .tolerance import INNER_PRODUCT_ATOL, ROUNDOFF_ATOL

FLOAT = "float"
EXACT = "exact"

#: The dtype of ``parts`` in each mode.
_DTYPES = {FLOAT: np.float64, EXACT: object}

_SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)
# A power of two that lifts every subnormal into the normal range.
_SUBNORMAL_LIFT = 2.0**64


class ZeroStateError(ValueError):
    """Raised when amplitudes describe the zero vector, which is not a state."""


class ZeroResidualError(ValueError):
    """Contraction against the canonical pair state annihilated the input."""


# ---------------------------------------------------------------------------
# basis codes
# ---------------------------------------------------------------------------


def as_code(index, n: int) -> int:
    """Coerce an integer code, bit sequence, or bit string to a code."""
    if isinstance(index, str):
        if len(index) != n or any(c not in "01" for c in index):
            raise ValueError(f"bit string {index!r} does not describe {n} qubits")
        return int(index, 2) if n else 0
    if isinstance(index, (tuple, list)):
        if len(index) != n:
            raise ValueError(f"expected {n} bits, got {len(index)}")
        code = 0
        for b in index:
            if b not in (0, 1):
                raise ValueError(f"bits must be 0 or 1, got {b!r}")
            code = (code << 1) | b
        return code
    code = int(index)
    if not 0 <= code < (1 << n):
        raise ValueError(f"basis code {code} out of range for {n} qubits")
    return code


# ---------------------------------------------------------------------------
# state vectors
# ---------------------------------------------------------------------------


class StateVector:
    """Immutable n-qubit pure state in one of two numeric modes.

    ``parts`` and ``scale`` hold the amplitudes (module docstring).
    ``StateVector(amplitudes)`` is a float state, normalized.  An exact
    state comes from ``mode="exact"`` or ``from_rational``, with every
    amplitude an int, Fraction, 'p/q' string, or (re, im) pair of those,
    kept as given; its squared norm is computed on first access.
    """

    __slots__ = ("_n", "_mode", "_parts", "_scale", "_sqnorm", "_vec")

    def __init__(self, amplitudes, mode: str = FLOAT):
        if mode not in _DTYPES:
            raise ValueError(f"unknown mode {mode!r}")
        if mode == EXACT:
            self._hold_exact(*_rational_parts(amplitudes))
            return
        vec = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
        n = _qubit_count(vec.size)
        if not np.all(np.isfinite(vec)):
            raise ValueError("state amplitudes must be finite")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(vec))
        if norm == 0.0 or math.isinf(norm):
            # The norm over- or underflowed; rescale by the largest part first.
            scale = max(np.abs(vec.real).max(), np.abs(vec.imag).max())
            if scale == 0.0:
                raise ZeroStateError("state vector must be nonzero")
            if scale < _SMALLEST_NORMAL:
                # complex division multiplies by 1/scale, which overflows
                # here; lifting by a power of two first is exact
                vec, scale = vec * _SUBNORMAL_LIFT, scale * _SUBNORMAL_LIFT
            vec = vec / scale
            norm = float(np.linalg.norm(vec))
        vec = vec / norm
        vec.flags.writeable = False
        self._n, self._mode, self._scale, self._sqnorm, self._vec = n, FLOAT, 1, 1.0, vec
        self._parts = vec.view(np.float64).reshape((2,) * n + (2,))

    def _hold_exact(self, flat: np.ndarray, scale: int) -> None:
        """Hold Python-int parts ``flat`` (re, im interleaved) over ``scale``, reduced by their gcd."""
        n = _qubit_count(flat.size // 2)
        if not any(flat):
            raise ZeroStateError("state vector must be nonzero")
        common = math.gcd(scale, *flat)
        if common > 1:
            flat, scale = flat // common, scale // common
        parts = flat.reshape((2,) * n + (2,))
        parts.flags.writeable = False
        self._n, self._mode, self._scale, self._sqnorm, self._vec = n, EXACT, scale, None, None
        self._parts = parts

    @classmethod
    def _from_parts(cls, parts: np.ndarray, scale: int, mode: str) -> "StateVector":
        """The state whose real parts are ``parts`` over ``scale``, of ``_DTYPES[mode]``.

        Float ``parts`` need a contiguous last axis, so that each (re, im)
        is viewed, and copied, as one complex128 amplitude.
        """
        if mode == FLOAT:
            return cls(parts.view(np.complex128).reshape(-1))
        psi = object.__new__(cls)
        psi._hold_exact(parts.reshape(-1), scale)
        return psi

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, values) -> "StateVector":
        """Exact state from ints, Fractions, 'p/q' strings and (re, im) pairs of those."""
        return cls(values, mode=EXACT)

    # -- basic accessors ----------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def mode(self) -> str:
        return self._mode

    @property
    def parts(self) -> np.ndarray:
        """The real parts as a read-only (2,)*n + (2,) array, over ``scale``."""
        return self._parts

    @property
    def scale(self) -> int:
        """What ``parts`` are divided by: 1 in float mode."""
        return self._scale

    @property
    def vector(self):
        """The amplitudes: a read-only complex ndarray, or a tuple of (Fraction, Fraction) pairs.

        Float states hold theirs; exact ones are read from ``parts`` on first access.
        """
        if self._vec is None:
            self._vec = _amplitudes_of(self._parts, self._scale)
        return self._vec

    @property
    def norm_squared(self):
        """1.0 in float mode; the representative's squared norm in exact mode."""
        if self._sqnorm is None:
            flat = self._parts.reshape(-1)
            self._sqnorm = Fraction(flat @ flat, self._scale**2)
        return self._sqnorm

    def amplitude(self, index):
        return self.vector[as_code(index, self._n)]

    def to_float(self) -> "StateVector":
        """Convert to the floating backend (normalizing); no-op if already float.

        If the largest absolute part lies outside the normal float range,
        every part is first divided by it, exactly, so the state converts
        like its unit-scale equivalent; parts in range convert unscaled.
        """
        if self._mode == FLOAT:
            return self
        flat = self._parts.reshape(-1)
        den = self._scale
        top = max(map(abs, flat))
        if not sys.float_info.min <= Fraction(top, den) <= sys.float_info.max:
            den = top
        # int / int is correctly rounded, as float(Fraction) is
        return StateVector((flat / den).astype(np.float64).view(np.complex128))

    # -- comparisons --------------------------------------------------------

    def allclose(self, other: "StateVector", tol: float = ROUNDOFF_ATOL) -> bool:
        if self._mode != FLOAT or other._mode != FLOAT:
            raise ValueError("allclose compares floating-mode states")
        return self._n == other._n and bool(
            np.allclose(self.vector, other.vector, atol=tol, rtol=0.0)
        )

    def proportional_to(self, other: "StateVector", tol: float = INNER_PRODUCT_ATOL) -> bool:
        """True when the two states agree up to a global complex scale."""
        if self._n != other._n:
            return False
        if self._mode != other._mode:
            raise ValueError("proportional_to compares states in the same mode")
        if self._mode == FLOAT:
            mine, theirs = self.vector, other.vector
            pivot = int(np.argmax(np.abs(theirs)))
            ratio = mine[pivot] / theirs[pivot]
            return bool(np.allclose(mine, ratio * theirs, atol=tol, rtol=0.0))
        # a * b_p == a_p * b, as Gaussian integers, for a pivot p with b_p != 0
        mine, theirs = self._parts.reshape(-1, 2), other._parts.reshape(-1, 2)
        pivot = int(np.flatnonzero((theirs != 0).any(axis=1))[0])
        return np.array_equal(_outer(mine, theirs[pivot]), _outer(mine[pivot], theirs))

    def __repr__(self) -> str:
        return f"StateVector(n={self._n}, mode={self._mode!r})"

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Schema: {"n": int, "mode": "float"|"exact", "amplitudes": [[re, im], ...]}.

        Amplitudes are ordered by integer code.  Exact mode writes 'p/q'
        strings; float mode writes numbers.
        """
        amps = _json_amplitudes(self._parts, self._scale)
        return {"n": self._n, "mode": self._mode, "amplitudes": amps}

    @classmethod
    def from_json_dict(cls, data: dict) -> "StateVector":
        if not isinstance(data, dict):
            raise ValueError("state file must hold a JSON object")
        try:
            n = data["n"]
            mode = data["mode"]
            amps = data["amplitudes"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"state object missing field: {exc}") from exc
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise ValueError(f"invalid qubit count {n!r}")
        if mode not in (FLOAT, EXACT):
            raise ValueError(f"invalid mode {mode!r}")
        if not isinstance(amps, list) or len(amps) != (1 << n):
            raise ValueError(f"expected {1 << n} amplitudes for n={n}")
        if mode == EXACT:
            ratios = [_exact_part(part) for pair in _entries(amps) for part in pair]
            return cls._from_parts(*_over_common_denominator(ratios), EXACT)
        return cls([_float_amplitude(pair) for pair in _entries(amps)])


def _entries(amps: list):
    """The [re, im] entries of a state file's amplitude list, each checked for shape as read."""
    for pair in amps:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"amplitude entries must be [re, im] pairs, got {pair!r}")
        yield pair


def _float_amplitude(pair) -> complex:
    """One [re, im] entry of a float state file, as a complex number."""
    re, im = pair
    if isinstance(re, bool) or isinstance(im, bool):
        raise ValueError("amplitude parts must be numbers")
    if not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
        raise ValueError(f"float amplitudes must be numeric, got {pair!r}")
    try:
        return complex(re, im)
    except OverflowError:  # an integer beyond float range
        raise ValueError("state amplitudes must be finite") from None


def _amplitudes_of(parts: np.ndarray, scale: int):
    """The amplitudes whose real parts (last axis interleaved re, im) are ``parts`` over ``scale``.

    Float parts give a complex128 ndarray; exact parts a tuple of
    (Fraction, Fraction) pairs.
    """
    flat = np.ascontiguousarray(parts).reshape(-1)
    if flat.dtype != object:
        return flat.view(np.complex128)
    return tuple(
        (Fraction(re, scale), Fraction(im, scale)) for re, im in zip(flat[0::2], flat[1::2])
    )


def _json_amplitudes(parts: np.ndarray, scale: int) -> list:
    """Amplitudes as the state file writes them: [[re, im], ...], numbers or 'p/q' strings."""
    if parts.dtype != object:
        return np.ascontiguousarray(parts).reshape(-1, 2).tolist()
    return [[fraction_str(re), fraction_str(im)] for re, im in _amplitudes_of(parts, scale)]


def _over_common_denominator(ratios) -> tuple:
    """``(flat, scale)``: parts given as (numerator, denominator) pairs, as Python ints over one scale.

    ``scale`` is the lcm of the denominators as given; ``StateVector``
    reduces the ints and the scale by their gcd.
    """
    scale = math.lcm(*(den for _, den in ratios))
    return np.array([num * (scale // den) for num, den in ratios], dtype=object), scale


def _rational_parts(values) -> tuple:
    """``_over_common_denominator`` of exact amplitudes: ints, Fractions, 'p/q' strings or (re, im) pairs."""
    ratios = []
    for value in values:
        re, im = value if isinstance(value, (tuple, list)) and len(value) == 2 else (value, 0)
        ratios += (as_fraction(re).as_integer_ratio(), as_fraction(im).as_integer_ratio())
    return _over_common_denominator(ratios)


# 'p' or 'p/q' in ASCII digits: read with int(), which is faster than Fraction's
# own parser; any other string goes to Fraction, which accepts or rejects it.
_PLAIN_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _exact_part(value) -> tuple:
    """``(numerator, denominator)`` of one part of an exact state file."""
    if isinstance(value, bool):
        raise ValueError("amplitude parts must be rationals, not booleans")
    if not isinstance(value, (str, int)):
        raise ValueError(f"exact amplitudes must be 'p/q' strings or integers, got {value!r}")
    if isinstance(value, str) and _PLAIN_RATIONAL.fullmatch(value):
        num, _, den = value.partition("/")
        num, den = int(num), int(den or 1)
    else:
        try:
            num, den = as_fraction(value).as_integer_ratio()
        except ZeroDivisionError:
            num, den = value, 0
    if den == 0:
        raise ValueError(f"exact amplitude part {value!r} has a zero denominator")
    return num, den


def _qubit_count(size: int) -> int:
    n = size.bit_length() - 1
    if size <= 0 or (1 << n) != size:
        raise ValueError(f"amplitude count {size} is not a power of two")
    return n


def save_state(psi: StateVector, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(psi.to_json_dict(), fh, indent=2)
        fh.write("\n")


def load_state(path) -> StateVector:
    with open(path, "r", encoding="utf-8") as fh:
        return StateVector.from_json_dict(json.load(fh))


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def _outer(*factors: np.ndarray) -> np.ndarray:
    """Real parts of the outer product, in order, of the amplitudes whose real parts are ``factors``.

    Float parts multiply as complex128, exactly as numpy multiplies
    amplitudes: each (re, im) on the contiguous last axis is viewed as one
    complex128, and the product viewed back.  Exact parts multiply as
    Gaussian integers.
    """
    out, *rest = factors
    if out.dtype != object:
        out = out.view(np.complex128)[..., 0]
        for b in rest:
            out = np.multiply.outer(out, b.view(np.complex128)[..., 0])
        return out[..., None].view(np.float64)
    for b in rest:
        re = np.multiply.outer(out[..., 0], b[..., 0]) - np.multiply.outer(out[..., 1], b[..., 1])
        im = np.multiply.outer(out[..., 0], b[..., 1]) + np.multiply.outer(out[..., 1], b[..., 0])
        out = np.stack((re, im), axis=-1)
    return out


def _indicator(mask: np.ndarray, mode: str) -> StateVector:
    """Amplitude one wherever ``mask`` holds and zero elsewhere."""
    parts = np.zeros(mask.shape + (2,), dtype=np.int8)
    parts[..., 0] = mask
    return StateVector._from_parts(parts.astype(_DTYPES[mode]), 1, mode)


def basis_state(n: int, index, mode: str = FLOAT) -> StateVector:
    """The computational basis state |index> on n qubits."""
    if n < 0:
        raise ValueError("qubit count must be nonnegative")
    # the code is checked before the 2**n codes are built
    return _indicator(as_code(index, n) == np.arange(1 << n), mode)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; the first factor supplies the leading (leftmost) qubits."""
    if a.mode != b.mode:
        raise ValueError("tensor factors must share a numeric mode")
    return StateVector._from_parts(_outer(a.parts, b.parts), a.scale * b.scale, a.mode)


def embed_product(n: int, placements) -> StateVector:
    """Assemble a product state from factors placed on given qubit positions.

    ``placements`` is an iterable of ``(positions, factor)`` pairs where
    ``positions`` lists 1-based integer qubit numbers (in the factor's own
    order), one per qubit of the factor, and the positions across all
    placements partition {1..n} (``_check_partition``).
    """
    if n < 1:
        raise ValueError("qubit count must be at least 1")
    placements = [(tuple(pos), st) for pos, st in placements]
    for pos, st in placements:
        if len(pos) != st.n:
            raise ValueError(f"factor on {len(pos)} positions has {st.n} qubits")
    positions = _check_partition(n, [pos for pos, _ in placements])
    modes = {st.mode for _, st in placements}
    if len(modes) > 1:
        raise ValueError("all factors must share a numeric mode")
    mode = modes.pop()
    # the product starts from 1 + 0i, which can turn a factor's -0.0 into +0.0
    # in float mode; a matrix dump prints signed zeros
    one = np.array([1, 0], dtype=_DTYPES[mode])
    out = _outer(one, *(st.parts for _, st in placements))
    scale = math.prod(st.scale for _, st in placements)
    order = np.argsort([p for pos in positions for p in pos])
    return StateVector._from_parts(np.transpose(out, [*order, n]), scale, mode)


def canonical_pair_state(mode: str = FLOAT) -> StateVector:
    """The canonical two-qubit pair state (|00> + |11>)/sqrt(2): one shared instance per mode.

    A ``StateVector`` is immutable, so every caller can share it.
    """
    return _canonical_pair(mode)


@functools.lru_cache(maxsize=None)
def _canonical_pair(mode: str) -> StateVector:
    return _indicator(np.array([True, False, False, True]), mode)


def _qubit(q, n: int) -> int:
    """``q`` as an int qubit number; ValueError, naming it, unless it is an integer (``operator.index``) in 1..n."""
    try:
        p = operator.index(q)
    except TypeError:
        raise ValueError(f"qubit {q!r} is not an integer") from None
    if not 1 <= p <= n:
        raise ValueError(f"qubit {p} out of range 1..{n}")
    return p


def _check_partition(n: int, groups) -> list:
    """``groups`` as lists of int qubits; ValueError unless their 1-based qubits partition 1..n.

    Every qubit must pass ``_qubit``, none may repeat, and together they
    must cover 1..n.  The one structural rule behind a pairing
    (``_check_pairing``) and a product's placements (``embed_product``).
    """
    checked = [[_qubit(q, n) for q in group] for group in groups]
    flat = [p for group in checked for p in group]
    if len(set(flat)) != len(flat):
        raise ValueError(f"qubits repeat: {sorted({p for p in flat if flat.count(p) > 1})}")
    if len(flat) != n:
        raise ValueError(f"qubits not covered: {sorted(set(range(1, n + 1)) - set(flat))}")
    return checked


def _check_pairing(n: int, pairs, lone) -> list:
    """The pairs of a pairing of n qubits, each sorted; ValueError unless they and ``lone`` tile 1..n.

    Each pair must hold two qubits, a lone qubit must be given exactly
    when n is odd, and the pairs with the lone qubit must partition 1..n
    (``_check_partition``).  ``singlet_product`` and
    ``analysis.SingletPairing`` share this rule, and its messages.
    """
    pairs = [tuple(pair) for pair in pairs]
    for pair in pairs:
        if len(pair) != 2:
            raise ValueError(f"pair {pair} does not hold two qubits")
    if (lone is None) == (n % 2 == 1):
        raise ValueError("odd qubit counts require a lone qubit" if n % 2 else "even qubit counts admit no lone qubit")
    checked = _check_partition(n, pairs + ([] if lone is None else [(lone,)]))
    return [tuple(sorted(pair)) for pair in checked[: len(pairs)]]


def singlet_product(n: int, pairs, lone: Optional[int] = None, mode: str = FLOAT) -> StateVector:
    """Product of canonical pair states on ``pairs`` with |0> on the lone qubit.

    Args:
        n: total qubit count.
        pairs: iterable of 2-tuples of 1-based integer qubit numbers;
            must be disjoint and, together with ``lone``, cover 1..n.
        lone: leftover qubit for odd n (gets |0>); must be None for even n.
        mode: "float" (normalized) or "exact" (unnormalized representative).
    """
    if n < 1:
        raise ValueError("qubit count must be at least 1")
    norm_pairs = _check_pairing(n, pairs, lone)
    bits = np.indices((2,) * n, sparse=True)
    mask = np.ones((2,) * n, dtype=bool)
    if lone is not None:
        mask &= bits[lone - 1] == 0
    for lo, hi in norm_pairs:
        mask &= bits[lo - 1] == bits[hi - 1]
    return _indicator(mask, mode)


def random_state(n: int, seed) -> StateVector:
    """Haar-uniform n-qubit state from 2**(n+1) standard Gaussians."""
    if n < 1:
        raise ValueError("qubit count must be at least 1")
    rng = np.random.default_rng(seed)
    parts = rng.standard_normal((2, 1 << n))
    return StateVector(parts[0] + 1j * parts[1], mode=FLOAT)


def random_rational_state(n: int, seed) -> StateVector:
    """Random exact-mode state with small-fraction amplitudes (unnormalized).

    Each part is a numerator in [-9, 9] over a denominator in 1..4.
    """
    if n < 1:
        raise ValueError("qubit count must be at least 1")
    rng = np.random.default_rng(seed)
    while True:
        nums = rng.integers(-9, 10, size=(2, 1 << n))
        dens = rng.integers(1, 5, size=(2, 1 << n))
        if np.any(nums):
            break
    # 12 is the lcm of every denominator drawn
    parts = (nums * (12 // dens)).T.astype(object)
    return StateVector._from_parts(parts, 12, EXACT)


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------


def _pair_rows(psi: StateVector, l: int, lp: int) -> np.ndarray:
    """``parts`` as a 4 x 2**(n-2) x 2 array split across qubits (l, lp) and the rest.

    Row 2*b + b' holds the bits (b, b') of the lower and higher of the two
    qubits; columns run over the remaining qubits in their own order.  The
    last axis holds each amplitude's (re, im), contiguous, so a float
    reader can view it as one complex128.
    """
    lo, hi = sorted((l, lp))
    return np.moveaxis(psi.parts, (lo - 1, hi - 1), (0, 1)).reshape(4, -1, 2)


def contract_pair(psi: StateVector, l: int, lp: int) -> StateVector:
    """Partial inner product with the canonical pair state on qubits (l, lp).

    Returns the (n-2)-qubit residual, normalized in float mode.  Raises
    ZeroResidualError when the contraction annihilates psi (the pair is
    LU-equivalent to, but not equal to, the canonical pair state), and
    ValueError unless l and lp are two distinct integer qubits of 1..n.
    """
    n = psi.n
    if n < 2:
        raise ValueError("contraction needs at least two qubits")
    l, lp = _qubit(l, n), _qubit(lp, n)
    if l == lp:
        raise ValueError("contraction needs two distinct qubits")
    return _contract_pairs(psi, [(l, lp)])


def _contract_pairs(psi: StateVector, pairs, atol: Optional[float] = None) -> Optional[StateVector]:
    """Partial inner product with the canonical pair state on each of the disjoint ``pairs``, in one pass.

    Every pair's two axes are moved to the front, as a transposed view;
    each step adds the pair's (0, 0) and (1, 1) slices of what is left, so
    no entry of ``parts`` is read twice.  The other qubits keep their order.
    Returns the residual, normalized in float mode, where it is divided by
    sqrt(2) per pair before the zero test.  Raises ZeroResidualError when
    the contraction annihilates psi.

    With ``atol``, the residual is returned only when psi reassembles from
    it, and None otherwise: when psi is proportional, entry by entry, to
    the canonical pairs tensored with the residual, as
    ``StateVector.proportional_to`` tests it, at ``atol`` in float mode
    (``_reassembles``) and exactly in exact mode.  That product is never
    built: it is zero off the entries where each pair's two bits are
    equal (``_equal_bits``), and on them it is the residual, the same
    for every setting of the pairs' bits.
    """
    axes = [q - 1 for pair in pairs for q in pair]
    order = axes + [q for q in range(psi.n) if q not in axes]
    moved = rows = psi.parts.transpose(order + [psi.n])
    for _ in pairs:
        rows = rows[0, 0] + rows[1, 1]  # a complex add is two float adds
    out = rows.reshape(-1, 2)
    if psi.mode == FLOAT:
        out = out.view(np.complex128)[:, 0] / math.sqrt(2.0 ** len(pairs))
        if float(np.linalg.norm(out)) > ROUNDOFF_ATOL:
            residual = StateVector(out)
            return residual if atol is None or _reassembles(psi, order, residual, atol) else None
    elif any(out.flat):
        if atol is not None:
            # a multiple of the product: zero off the equal bits, and one array on each of their settings
            equal = _equal_bits(moved, len(pairs))
            if np.count_nonzero(moved) != np.count_nonzero(equal) or (equal != equal[(0,) * len(pairs)]).any():
                return None
        return StateVector._from_parts(out, psi.scale, EXACT)
    named = ", ".join(f"({a},{b})" for a, b in pairs)
    raise ZeroResidualError(f"contracting qubits {named} annihilated the state")


def _equal_bits(moved: np.ndarray, count: int) -> np.ndarray:
    """The entries of ``moved`` where each of its ``count`` leading pairs of axes holds two equal bits, as a view.

    One axis per pair, then ``moved``'s other axes; the view is writable
    when ``moved`` is.
    """
    pairs = string.ascii_letters[:count]
    return np.einsum("".join(a + a for a in pairs) + "...->" + pairs + "...", moved)


def _reassembles(psi: StateVector, order: list, residual: StateVector, atol: float) -> bool:
    """Whether float psi is ``atol``-close to a multiple of the canonical pairs tensored with ``residual``.

    The test of ``StateVector.proportional_to``, entry by entry, on the
    product P: the ratio is P over psi at psi's largest entry, the first
    if several, and |P - ratio * psi| must be at most ``atol`` everywhere.
    P is zero off the entries of equal pair bits, where the test reads
    |ratio| times the largest of psi's sizes there; on them P is the
    residual times 2**(-p/2), p pairs, read over psi's moved-axis view:
    ``order`` lists psi's axes with each pair's two first, as
    ``_contract_pairs`` moves them.
    """
    n, lead = psi.n, psi.n - residual.n
    count, shape = lead // 2, (2,) * n
    sizes = np.abs(psi.vector)
    pivot = int(np.argmax(sizes))
    # the pivot's bits in the moved order: axis q is bit n - 1 - q of a code
    at = tuple((pivot >> (n - 1 - q)) & 1 for q in order)
    product = residual.vector.reshape(shape[lead:]) * math.sqrt(0.5) ** count
    top = product[at[lead:]] if at[:lead:2] == at[1:lead:2] else 0.0
    ratio = top / psi.vector[pivot]
    # psi's sizes off the equal bits: those on them are set to zero
    _equal_bits(sizes.reshape(shape).transpose(order), count)[...] = 0.0
    if not abs(ratio) * sizes.max() <= atol:
        return False
    equal = _equal_bits(psi.vector.reshape(shape).transpose(order), count)
    return bool(np.abs(product - ratio * equal).max() <= atol)
