"""Local unitaries: sampling, application, and the induced rotation on generators."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .states import FLOAT, StateVector
from .tolerance import ROUNDOFF_ATOL

#: The per-qubit generator matrices in triple order (z, y, x).
GENERATORS = (
    np.array([[1j, 0.0], [0.0, -1j]]),
    np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=np.complex128),
    np.array([[0.0, 1j], [1j, 0.0]]),
)


def _is_su2(u: np.ndarray) -> bool:
    if u.shape != (2, 2):
        return False
    if not np.allclose(u.conj().T @ u, np.eye(2), atol=ROUNDOFF_ATOL, rtol=0.0):
        return False
    return abs(np.linalg.det(u) - 1.0) <= ROUNDOFF_ATOL


def random_su2(seed) -> np.ndarray:
    """Haar-distributed SU(2) element from a normalized 4-d Gaussian quaternion.

    The norm is ``np.linalg.norm``'s own, the square root of ``q.dot(q)``,
    and the entries are built from Python floats: numpy-scalar arithmetic
    would give the same bits, several times slower.
    """
    q = np.random.default_rng(seed).standard_normal(4)
    w, x, y, z = (q / math.sqrt(q.dot(q))).tolist()
    return np.array([[complex(w, z), complex(y, x)], [complex(-y, x), complex(w, -z)]])


@dataclass(frozen=True, eq=False)
class LocalUnitary:
    """One SU(2) factor per qubit, applied independently."""

    factors: tuple

    def __init__(self, factors: Sequence[np.ndarray]):
        mats = tuple(np.asarray(f, dtype=np.complex128) for f in factors)
        if not mats:
            raise ValueError("a local unitary needs at least one factor")
        for i, u in enumerate(mats):
            if not _is_su2(u):
                raise ValueError(f"factor {i + 1} is not special unitary within {ROUNDOFF_ATOL}")
        object.__setattr__(self, "factors", mats)

    @classmethod
    def _of(cls, mats: tuple) -> "LocalUnitary":
        """A local unitary of complex128 SU(2) ``mats`` built here, which need no validation."""
        lu = object.__new__(cls)
        object.__setattr__(lu, "factors", mats)
        return lu

    @property
    def n(self) -> int:
        return len(self.factors)

    @classmethod
    def identity(cls, n: int) -> "LocalUnitary":
        return cls([np.eye(2, dtype=np.complex128)] * n)

    @classmethod
    def random(cls, n: int, seed) -> "LocalUnitary":
        """Independent Haar factors, one per qubit, from a single seed."""
        if n < 1:
            raise ValueError("qubit count must be at least 1")
        children = _seed_sequence(seed).spawn(n)
        return cls._of(tuple(random_su2(c) for c in children))


def _seed_sequence(seed) -> np.random.SeedSequence:
    """A fresh ``SeedSequence`` for ``seed``, whose children the caller may spawn.

    A ``SeedSequence`` is copied with its entropy, spawn key and pool size,
    so sibling children of one root give distinct draws, and the caller's
    own object spawns nothing.  A ``Generator`` gives a stable entropy from
    its stream; anything else is the entropy itself.
    """
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size
        )
    if isinstance(seed, np.random.Generator):
        return np.random.SeedSequence(int(seed.integers(0, 2**63)))
    return np.random.SeedSequence(seed)


def apply_local(psi, lu: LocalUnitary):
    """Apply one 2x2 factor per qubit.

    Accepts a StateVector (returns a StateVector; exact-mode input is
    converted to floating, since the factors are floating matrices) or a
    bare complex vector (returns a bare vector, unnormalized).
    """
    if isinstance(psi, StateVector):
        state = psi.to_float()
        if state.n != lu.n:
            raise ValueError(f"state has {state.n} qubits, local unitary has {lu.n}")
        return StateVector(_apply_factors(state.vector, lu.factors), mode=FLOAT)
    vec = np.asarray(psi, dtype=np.complex128).reshape(-1)
    n = vec.size.bit_length() - 1
    if (1 << n) != vec.size or n != lu.n:
        raise ValueError("vector length does not match the local unitary")
    return _apply_factors(vec, lu.factors)


def _apply_factors(vec: np.ndarray, factors: tuple) -> np.ndarray:
    """Apply factor k to qubit k, for every k.

    Each step contracts the leading axis, qubit k's, and writes it last,
    so the axes rotate: after n steps they are back in qubit order.
    """
    out = vec
    for u in factors:
        out = np.einsum("ij,jb->bi", u, out.reshape(2, -1)).reshape(-1)
    return out


def adjoint_rep(u: np.ndarray) -> np.ndarray:
    """The 3x3 rotation X -> U* X U expressed in the (z, y, x) generator basis.

    Column j holds the coordinates of U* G_j U.  With this convention
    adjoint_rep(U V) = adjoint_rep(V) @ adjoint_rep(U), and the result is
    special orthogonal to within 1e-10.
    """
    u = np.asarray(u, dtype=np.complex128)
    if not _is_su2(u):
        raise ValueError("adjoint_rep requires a special unitary 2x2 matrix")
    rep = np.empty((3, 3))
    for j, gen in enumerate(GENERATORS):
        image = u.conj().T @ gen @ u
        for i, basis in enumerate(GENERATORS):
            # The generators are orthonormal under -tr(XY)/2.
            rep[i, j] = -0.5 * np.trace(image @ basis).real
    return rep
