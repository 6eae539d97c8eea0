"""n-qubit pure states with floating and exact-rational amplitude backends.

Conventions used throughout the package:

* Qubits are numbered 1..n and bit 1 is the most significant, so the basis
  label |i_1 i_2 ... i_n> corresponds to the integer code
  sum_k i_k * 2**(n-k).
* Floating states are normalized when constructed.  Exact states keep their
  (generally unnormalizable-in-rationals) representative and record the
  squared norm instead; every rank computed from them is scale invariant,
  so nothing downstream needs the unit-norm representative.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Optional

import numpy as np

from .rational import RC_ONE, RC_ZERO, RationalComplex, as_fraction, fraction_str

FLOAT = "float"
EXACT = "exact"

#: Amplitudes with squared norm at or below this are treated as annihilated
#: by contract_pair in floating mode.
CONTRACTION_ZERO_TOL = 1e-12


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

    ``float`` mode stores a unit-norm complex128 array.  ``exact`` mode
    stores RationalComplex amplitudes exactly as given (no normalization)
    together with the squared norm of that representative.
    """

    __slots__ = ("_n", "_mode", "_vec", "_sqnorm")

    def __init__(self, amplitudes, mode: Optional[str] = None):
        if mode is None:
            mode = _infer_mode(amplitudes)
        if mode == FLOAT:
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
                vec = vec / scale
                norm = float(np.linalg.norm(vec))
            vec = vec / norm
            vec.flags.writeable = False
            self._vec = vec
            self._sqnorm = 1.0
        elif mode == EXACT:
            vec = tuple(RationalComplex.from_value(a) for a in amplitudes)
            n = _qubit_count(len(vec))
            sqnorm = sum((a.abs2() for a in vec), Fraction(0))
            if sqnorm == 0:
                raise ZeroStateError("state vector must be nonzero")
            self._vec = vec
            self._sqnorm = sqnorm
        else:
            raise ValueError(f"unknown mode {mode!r}")
        self._n = n
        self._mode = mode

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_complex(cls, values) -> "StateVector":
        return cls(values, mode=FLOAT)

    @classmethod
    def from_rational(cls, values) -> "StateVector":
        return cls(values, mode=EXACT)

    # -- basic accessors ----------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def mode(self) -> str:
        return self._mode

    @property
    def vector(self):
        """The underlying amplitudes: a read-only ndarray or a tuple."""
        return self._vec

    @property
    def dim(self) -> int:
        return 1 << self._n

    @property
    def norm_squared(self):
        """1.0 in float mode; the representative's squared norm in exact mode."""
        return self._sqnorm

    def amplitude(self, index):
        return self._vec[as_code(index, self._n)]

    def to_float(self) -> "StateVector":
        """Convert to the floating backend (normalizing); no-op if already float."""
        if self._mode == FLOAT:
            return self
        return StateVector([a.to_complex() for a in self._vec], mode=FLOAT)

    # -- comparisons --------------------------------------------------------

    def allclose(self, other: "StateVector", tol: float = 1e-12) -> bool:
        if self._mode != FLOAT or other._mode != FLOAT:
            raise ValueError("allclose compares floating-mode states")
        return self._n == other._n and bool(
            np.allclose(self._vec, other._vec, atol=tol, rtol=0.0)
        )

    def proportional_to(self, other: "StateVector", tol: float = 1e-10) -> bool:
        """True when the two states agree up to a global complex scale."""
        if self._n != other._n:
            return False
        if self._mode != other._mode:
            raise ValueError("proportional_to compares states in the same mode")
        if self._mode == FLOAT:
            pivot = int(np.argmax(np.abs(other._vec)))
            ratio = self._vec[pivot] / other._vec[pivot]
            return bool(np.allclose(self._vec, ratio * other._vec, atol=tol, rtol=0.0))
        pivot = next(i for i, a in enumerate(other._vec) if not a.is_zero)
        if self._vec[pivot].is_zero:
            return False
        ratio = self._vec[pivot] / other._vec[pivot]
        return all(a == ratio * b for a, b in zip(self._vec, other._vec))

    def __repr__(self) -> str:
        return f"StateVector(n={self._n}, mode={self._mode!r})"

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Schema: {"n": int, "mode": "float"|"exact", "amplitudes": [[re, im], ...]}.

        Amplitudes are ordered by integer code.  Exact mode writes 'p/q'
        strings; float mode writes numbers.
        """
        if self._mode == FLOAT:
            amps = [[float(a.real), float(a.imag)] for a in self._vec]
        else:
            amps = [[fraction_str(a.re), fraction_str(a.im)] for a in self._vec]
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
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"invalid qubit count {n!r}")
        if mode not in (FLOAT, EXACT):
            raise ValueError(f"invalid mode {mode!r}")
        if not isinstance(amps, list) or len(amps) != (1 << n):
            raise ValueError(f"expected {1 << n} amplitudes for n={n}")
        entries = []
        for pair in amps:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ValueError(f"amplitude entries must be [re, im] pairs, got {pair!r}")
            re, im = pair
            if mode == FLOAT:
                if isinstance(re, bool) or isinstance(im, bool):
                    raise ValueError("amplitude parts must be numbers")
                if not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
                    raise ValueError(f"float amplitudes must be numeric, got {pair!r}")
                entries.append(complex(re, im))
            else:
                entries.append(RationalComplex(as_fraction(_exact_part(re)), as_fraction(_exact_part(im))))
        return cls(entries, mode=mode)


def _exact_part(value):
    if isinstance(value, bool):
        raise ValueError("amplitude parts must be rationals, not booleans")
    if isinstance(value, (str, int)):
        return value
    raise ValueError(f"exact amplitudes must be 'p/q' strings or integers, got {value!r}")


def _infer_mode(amplitudes) -> str:
    for a in amplitudes:
        return EXACT if isinstance(a, RationalComplex) else FLOAT
    raise ValueError("state vector must be nonempty")


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


def _amplitudes(psi: StateVector) -> np.ndarray:
    """The amplitudes as a (2,)*n array, axis k-1 indexed by the bit of qubit k.

    complex128 in float mode; object dtype holding RationalComplex in exact
    mode, so numpy reshapes and products serve both backends alike.
    """
    if psi.mode == FLOAT:
        return psi.vector.reshape((2,) * psi.n)
    return np.fromiter(psi.vector, dtype=object, count=psi.dim).reshape((2,) * psi.n)


def _indicator(mask: np.ndarray, mode: str) -> StateVector:
    """Amplitude one wherever ``mask`` holds and zero elsewhere."""
    one, zero = (RC_ONE, RC_ZERO) if mode == EXACT else (1.0, 0.0)
    return StateVector(np.where(mask, one, zero).reshape(-1), mode=mode)


def basis_state(n: int, index, mode: str = FLOAT) -> StateVector:
    """The computational basis state |index> on n qubits."""
    if n < 0:
        raise ValueError("qubit count must be nonnegative")
    return _indicator(np.arange(1 << n) == as_code(index, n), mode)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; the first factor supplies the leading (leftmost) qubits."""
    if a.mode != b.mode:
        raise ValueError("tensor factors must share a numeric mode")
    product = np.multiply.outer(_amplitudes(a), _amplitudes(b))
    return StateVector(np.reshape(product, -1), mode=a.mode)


def embed_product(n: int, placements) -> StateVector:
    """Assemble a product state from factors placed on given qubit positions.

    ``placements`` is an iterable of ``(positions, factor)`` pairs where
    ``positions`` lists 1-based qubit numbers (in the factor's own order)
    and the positions across all placements partition {1..n}.
    """
    placements = [(tuple(pos), st) for pos, st in placements]
    seen: set = set()
    for pos, st in placements:
        if len(pos) != st.n:
            raise ValueError(f"factor on {len(pos)} positions has {st.n} qubits")
        for p in pos:
            if not 1 <= p <= n:
                raise ValueError(f"qubit position {p} out of range 1..{n}")
            if p in seen:
                raise ValueError(f"qubit position {p} assigned twice")
            seen.add(p)
    if seen != set(range(1, n + 1)):
        raise ValueError("placements must cover qubits 1..n exactly")
    modes = {st.mode for _, st in placements}
    if len(modes) > 1:
        raise ValueError("all factors must share a numeric mode")
    mode = modes.pop()
    out = 1
    for _, st in placements:
        out = np.multiply.outer(out, _amplitudes(st))
    order = np.argsort([p for pos, _ in placements for p in pos])
    return StateVector(np.reshape(np.transpose(out, order), -1), mode=mode)


def canonical_pair_state(mode: str = FLOAT) -> StateVector:
    """The canonical two-qubit pair state (|00> + |11>)/sqrt(2)."""
    return _indicator(np.array([True, False, False, True]), mode)


def _check_pairing(n: int, pairs, lone) -> list:
    norm_pairs = []
    seen: set = set()
    for pair in pairs:
        a, b = pair
        if a == b:
            raise ValueError(f"pair ({a},{b}) repeats a qubit")
        lo, hi = (a, b) if a < b else (b, a)
        for p in (lo, hi):
            if not 1 <= p <= n:
                raise ValueError(f"qubit {p} out of range 1..{n}")
            if p in seen:
                raise ValueError(f"overlapping pairs: qubit {p} appears twice")
            seen.add(p)
        norm_pairs.append((lo, hi))
    if n % 2 == 0:
        if lone is not None:
            raise ValueError("even qubit counts admit no lone qubit")
        if seen != set(range(1, n + 1)):
            raise ValueError("pairs must cover qubits 1..n")
    else:
        if lone is None:
            raise ValueError("odd qubit counts require a lone qubit")
        if not 1 <= lone <= n:
            raise ValueError(f"lone qubit {lone} out of range 1..{n}")
        if lone in seen:
            raise ValueError(f"lone qubit {lone} collides with a pair")
        if seen | {lone} != set(range(1, n + 1)):
            raise ValueError("pairs plus lone qubit must cover qubits 1..n")
    return norm_pairs


def singlet_product(n: int, pairs, lone: Optional[int] = None, mode: str = FLOAT) -> StateVector:
    """Product of canonical pair states on ``pairs`` with |0> on the lone qubit.

    Args:
        n: total qubit count.
        pairs: iterable of 2-tuples of 1-based qubit numbers; must be
            disjoint and, together with ``lone``, cover 1..n.
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


def random_rational_state(n: int, seed, span: int = 9) -> StateVector:
    """Random exact-mode state with small-fraction amplitudes (unnormalized)."""
    if n < 1:
        raise ValueError("qubit count must be at least 1")
    rng = np.random.default_rng(seed)
    while True:
        nums = rng.integers(-span, span + 1, size=(2, 1 << n))
        dens = rng.integers(1, 5, size=(2, 1 << n))
        if np.any(nums):
            break
    entries = [
        RationalComplex(
            Fraction(int(nums[0, i]), int(dens[0, i])),
            Fraction(int(nums[1, i]), int(dens[1, i])),
        )
        for i in range(1 << n)
    ]
    return StateVector(entries, mode=EXACT)


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------


def _pair_rows(psi: StateVector, l: int, lp: int) -> np.ndarray:
    """Amplitudes as a 4 x 2**(n-2) array split across qubits (l, lp) and the rest.

    Row 2*b + b' holds the bits (b, b') of the lower and higher of the two
    qubits; columns run over the remaining qubits in their own order.
    """
    lo, hi = sorted((l, lp))
    return np.moveaxis(_amplitudes(psi), (lo - 1, hi - 1), (0, 1)).reshape(4, -1)


def contract_pair(psi: StateVector, l: int, lp: int) -> StateVector:
    """Partial inner product with the canonical pair state on qubits (l, lp).

    Returns the (n-2)-qubit residual, normalized in float mode.  Raises
    ZeroResidualError when the contraction annihilates psi (the pair is
    LU-equivalent to, but not equal to, the canonical pair state).
    """
    n = psi.n
    if n < 2:
        raise ValueError("contraction needs at least two qubits")
    if l == lp:
        raise ValueError("contraction needs two distinct qubits")
    for p in (l, lp):
        if not 1 <= p <= n:
            raise ValueError(f"qubit {p} out of range 1..{n}")
    rows = _pair_rows(psi, l, lp)
    out = rows[0] + rows[3]
    if psi.mode == FLOAT:
        out = out / math.sqrt(2.0)
        annihilated = float(np.linalg.norm(out)) <= CONTRACTION_ZERO_TOL
    else:
        annihilated = all(a.is_zero for a in out)
    if annihilated:
        raise ZeroResidualError(f"contracting qubits ({l},{lp}) annihilated the state")
    return StateVector(out, mode=psi.mode)
