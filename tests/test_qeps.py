"""The cutoff-modified projector family on the spherical-shell geometry."""

import numpy as np
import pytest

from decem.spectral import build_Q_eps


def _build(shell_bundle, eps):
    b = shell_bundle
    return build_Q_eps(
        b.hb, b.ops, eps=eps, center=np.zeros(3), r_plateau=0.6, r_zero=0.75
    )


def test_projection_idempotent(shell_bundle):
    q = _build(shell_bundle, 0.4)
    Qm = q.matrix()
    assert np.linalg.norm(Qm @ Qm - Qm) <= 1e-10 * max(np.abs(Qm).max(), 1.0)


def test_rank_of_q0_is_kernel_dimension(shell_bundle):
    q = _build(shell_bundle, 0.4)
    # left = Q_l R_l and right^T = Q_r R_r give Q0 = Q_l (R_l R_r^T) Q_r^T: Q0 and
    # the L x L core have the same singular values, without forming the n x n Q0
    left, right = q.q0_factors()
    Rl, Rr = np.linalg.qr(left, mode="r"), np.linalg.qr(right.T, mode="r")
    assert np.linalg.matrix_rank(Rl @ Rr.T, tol=1e-8) == q.L


def test_pairing_is_kronecker(shell_bundle):
    q = _build(shell_bundle, 0.4)
    target = np.zeros(q.L)
    target[-1] = 1.0
    assert np.linalg.norm(q.pairings() - target) <= 0.02


def test_range_annihilated_by_d(shell_bundle):
    b = shell_bundle
    q = _build(b, 0.4)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(b.ops.n(1))
    y = b.ops.d(1) @ q.apply_q0(x)
    assert b.ops.norm(2, y) <= 1e-10 * b.ops.norm(1, x)


def test_projector_compatibilities(shell_bundle):
    b = shell_bundle
    q = _build(b, 0.4)
    K = b.dec.kernel_basis()
    M = b.ops.mass(1)
    P0 = K @ (K.T @ M.toarray())
    Qm = q.matrix()
    Q0 = q.q0_matrix()
    n = Qm.shape[0]
    # P Q_eps = Q_eps and Q0 P0 = Q0
    assert np.linalg.norm((np.eye(n) - P0) @ Qm - Qm) <= 1e-10 * n
    assert np.linalg.norm(Q0 @ P0 - Q0) <= 1e-10 * n


def test_monotone_trends_over_eps(shell_bundle):
    b = shell_bundle
    nd, qp = [], []
    for eps in (0.8, 0.4, 0.2):
        q = _build(b, eps)
        nd.append(b.ops.norm(0, b.ops.apply_codifferential(1, q.psi_eps)))
        qp.append(b.ops.norm(1, q.psi_basis[:, -1] - q.psi_eps))
    assert nd[0] > nd[1] > nd[2]
    assert qp[0] > qp[1] > qp[2]


def test_delta_q0_norm_is_rank_one_value(shell_bundle):
    b = shell_bundle
    q = _build(b, 0.4)
    # delta~ Q_{0,eps} = <., psi> (delta~ psi_eps): norm = ||delta~ psi_eps||
    dpe = b.ops.apply_codifferential(1, q.psi_eps)
    got = b.ops.norm(0, dpe)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(5):
        x = rng.standard_normal(b.ops.n(1))
        val = b.ops.norm(0, b.ops.apply_codifferential(1, q.apply_q0(x)))
        worst = max(worst, val / b.ops.norm(1, x))
    assert worst <= got * (1 + 1e-8)


def test_degenerate_pairing_rejected(shell_bundle):
    b = shell_bundle
    # cutoff so tight it kills the boundary plateau -> pairing degenerates
    with pytest.raises(ValueError, match="pairing|domain"):
        build_Q_eps(
            b.hb, b.ops, eps=40.0, center=np.zeros(3),
            r_plateau=0.6, r_zero=0.75,
        )


def test_degenerate_pairing_reports_value(shell_bundle):
    import re

    b = shell_bundle
    with pytest.raises(ValueError, match=r"\|pairings - e_L\| (\S+) > 2\.00e-01") as exc:
        build_Q_eps(
            b.hb, b.ops, eps=40.0, center=np.zeros(3), r_plateau=0.6, r_zero=0.75,
        )
    dev = float(re.search(r"e_L\| (\S+) >", str(exc.value))[1])
    assert 0.2 < dev < 2.0


def test_basis_without_potential_rejected(shell_bundle):
    """Q_eps replaces the capacity mode, so a basis without its potential is refused."""
    import dataclasses

    b = shell_bundle
    bare = dataclasses.replace(b.hb, capacity=None, potential=None)
    with pytest.raises(ValueError, match="capacity potential"):
        build_Q_eps(bare, b.ops, eps=0.4, center=np.zeros(3), r_plateau=0.6, r_zero=0.75)
