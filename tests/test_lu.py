"""Local unitaries: sampling, application, and the induced triple rotation."""

import hashlib

import numpy as np
import pytest

from luorbit import (
    GENERATORS,
    LocalUnitary,
    adjoint_rep,
    apply_local,
    canonical_pair_state,
    random_state,
    random_su2,
    tangent_matrix,
)


def is_su2(u: np.ndarray) -> bool:
    return (
        u.shape == (2, 2)
        and np.allclose(u.conj().T @ u, np.eye(2), atol=1e-12)
        and abs(np.linalg.det(u) - 1.0) < 1e-12
    )


def test_random_su2_is_special_unitary():
    for seed in range(25):
        assert is_su2(random_su2(seed))


def test_random_su2_deterministic():
    assert np.array_equal(random_su2(13), random_su2(13))
    assert not np.allclose(random_su2(13), random_su2(14))


def test_trace_moment_vanishes():
    # Haar-distributed SU(2) has E[tr U] = 0; the empirical mean over 10^4
    # draws should be well inside 5 sigma of that
    rng = np.random.default_rng(2024)
    total = sum(np.trace(random_su2(rng)) for _ in range(10_000))
    assert abs(total) / 10_000 < 0.05


def test_local_unitary_validates_factors():
    with pytest.raises(ValueError):
        LocalUnitary([np.eye(2) * 2.0])
    with pytest.raises(ValueError):
        LocalUnitary([np.eye(3)])


def test_identity_fixes_states():
    psi = random_state(3, 17)
    assert apply_local(psi, LocalUnitary.identity(3)).allclose(psi, tol=1e-15)


def test_apply_local_preserves_norm_and_qubit_count():
    psi = random_state(3, 18)
    lu = LocalUnitary.random(3, 19)
    out = apply_local(psi, lu)
    assert out.n == 3
    assert abs(np.linalg.norm(out.vector) - 1.0) < 1e-12


def test_apply_local_wrong_size():
    psi = random_state(2, 20)
    with pytest.raises(ValueError):
        apply_local(psi, LocalUnitary.identity(3))


def test_apply_local_matches_dense_kron():
    psi = random_state(2, 21)
    lu = LocalUnitary.random(2, 22)
    dense = np.kron(lu.factors[0], lu.factors[1]) @ psi.vector
    assert np.allclose(apply_local(psi, lu).vector, dense, atol=1e-12)


def test_random_local_unitary_deterministic_per_qubit():
    a = LocalUnitary.random(3, 5)
    b = LocalUnitary.random(3, 5)
    for fa, fb in zip(a.factors, b.factors):
        assert np.array_equal(fa, fb)
    # different qubits get independent factors
    assert not np.allclose(a.factors[0], a.factors[1])


def test_random_local_unitary_validates_no_factor_it_built(monkeypatch):
    # random's factors are random_su2's draws from the spawned seeds, bit for
    # bit; it does not validate them again, while a user's LocalUnitary does
    import luorbit.lu as lu_mod

    checked = []
    is_su2 = lu_mod._is_su2
    monkeypatch.setattr(lu_mod, "_is_su2", lambda u: checked.append(u) or is_su2(u))
    lu = LocalUnitary.random(13, 7)
    assert checked == []
    for factor, child in zip(lu.factors, np.random.SeedSequence(7).spawn(13), strict=True):
        want = random_su2(child)
        assert factor.dtype == want.dtype == np.complex128
        assert factor.tobytes() == want.tobytes()
    assert LocalUnitary(lu.factors).n == 13
    assert len(checked) == 13
    with pytest.raises(ValueError, match="factor 13"):
        LocalUnitary([*lu.factors[:-1], 2 * lu.factors[-1]])


def _numpy_scalar_su2(seed) -> np.ndarray:
    """``random_su2``'s formula in numpy-scalar arithmetic, kept as its oracle."""
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([[w + 1j * z, y + 1j * x], [-y + 1j * x, w - 1j * z]])


def test_random_su2_matches_its_numpy_scalar_formula():
    seeds = list(range(2000)) + np.random.SeedSequence(11).spawn(200)
    for seed in seeds:
        got, want = random_su2(seed), _numpy_scalar_su2(seed)
        assert got.dtype == want.dtype == np.complex128
        assert got.tobytes() == want.tobytes(), seed


def test_sibling_seed_sequences_give_distinct_local_unitaries():
    a, b = np.random.SeedSequence(42).spawn(2)
    first, second = LocalUnitary.random(3, a), LocalUnitary.random(3, b)
    for fa, fb in zip(first.factors, second.factors):
        assert not np.allclose(fa, fb)
    # the same child gives the same unitary, and is not spawned from itself
    again = LocalUnitary.random(3, a)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(first.factors, again.factors))
    assert a.n_children_spawned == 0


def test_int_and_root_seeds_keep_their_factors():
    # the digest of every factor of these draws, frozen before sibling seeds
    # were told apart: int seeds and root SeedSequences draw exactly as before
    digest = hashlib.sha256()
    for seed in range(20):
        for n in (1, 3, 8):
            for s in (seed, np.random.SeedSequence(seed)):
                for factor in LocalUnitary.random(n, s).factors:
                    digest.update(factor.tobytes())
    assert digest.hexdigest() == (
        "edb1b77881360bfdc2bf0df9ad3998e145ba73817a9491640125b69a2df6b3de"
    )


def test_exact_states_are_converted_to_float():
    from luorbit import singlet_product

    psi = singlet_product(2, [(1, 2)], mode="exact")
    out = apply_local(psi, LocalUnitary.random(2, 30))
    assert out.mode == "float"


# ---------------------------------------------------------------------------
# the adjoint rotation
# ---------------------------------------------------------------------------


def test_adjoint_rep_of_identity():
    assert np.allclose(adjoint_rep(np.eye(2)), np.eye(3), atol=1e-12)


def test_adjoint_rep_is_a_rotation():
    for seed in range(10):
        r = adjoint_rep(random_su2(seed))
        assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(r) - 1.0) < 1e-10
        assert np.max(np.abs(r.imag)) == 0.0 if np.iscomplexobj(r) else True


def test_adjoint_rep_reverses_products():
    u, v = random_su2(41), random_su2(42)
    assert np.allclose(
        adjoint_rep(u @ v), adjoint_rep(v) @ adjoint_rep(u), atol=1e-12
    )


def test_adjoint_rep_rejects_non_su2():
    with pytest.raises(ValueError):
        adjoint_rep(np.diag([1.0, 2.0]))


def test_adjoint_rep_conjugation_identity():
    # U^dagger G_j U = sum_i R_ij G_i, the defining property
    u = random_su2(50)
    r = adjoint_rep(u)
    for j, gj in enumerate(GENERATORS):
        lhs = u.conj().T @ gj @ u
        rhs = sum(r[i, j] * GENERATORS[i] for i in range(3))
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_triples_rotate_by_the_adjoint():
    """Scrambling a state rotates each triple inside its own span.

    Columns of the new matrix are the old columns pushed through the
    unitary, mixed by that qubit's 3x3 adjoint rotation.
    """
    psi = random_state(2, 60)
    lu = LocalUnitary.random(2, 61)
    tm_old = tangent_matrix(psi)
    tm_new = tangent_matrix(apply_local(psi, lu))
    for k in (1, 2):
        sl = slice(3 * (k - 1), 3 * (k - 1) + 3)
        old = np.stack([tm_old.column(j) for j in range(sl.start, sl.stop)], axis=1)
        moved = np.stack([apply_local(old[:, j], lu) for j in range(3)], axis=1)
        rot = adjoint_rep(lu.factors[k - 1])
        new = np.stack([tm_new.column(j) for j in range(sl.start, sl.stop)], axis=1)
        assert np.allclose(moved @ rot, new, atol=1e-12)


def test_last_column_just_moves():
    psi = canonical_pair_state()
    lu = LocalUnitary.random(2, 62)
    tm_new = tangent_matrix(apply_local(psi, lu))
    moved = apply_local(tangent_matrix(psi).column(6), lu)
    assert np.allclose(tm_new.column(6), moved, atol=1e-12)
