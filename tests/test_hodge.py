import numpy as np
import pytest

from decem.forms import DecOperators
from decem.geometries import ball_shell_complex, canned_scenario
from decem.hodge import (
    HelmholtzSolver,
    capacity_and_psiL,
    harmonic_basis,
    sector_split,
    threshold_integral,
)
from decem.mesh import carve_obstacle
from decem.spectral import assemble_laplacian, eig
from hodge_reference import dense_split


def _sparse_solver(b):
    """The split on the bundle's Delta_1 by the two sparse solves, with the bundle's
    harmonic basis."""
    return HelmholtzSolver(b.L1, b.hb)


def _shell_ops(r_in, r_out, n_core=2, n_layers=4):
    shell = ball_shell_complex(r_in, r_out, n_core=n_core, n_layers=n_layers)
    sc = carve_obstacle(shell, {"core"})
    return DecOperators(sc.carved)


def test_capacity_concentric_spheres_default():
    ops = _shell_ops(1.0, 4.0, 2, 4)
    cap, u, psi = capacity_and_psiL(ops)
    exact = 16 * np.pi / 3
    assert abs(cap - exact) / exact <= 0.05
    # psi_L has unit M-norm
    assert abs(ops.norm(1, psi) - 1.0) <= 1e-12
    # u attains its boundary values
    assert u.max() <= 1.0 + 1e-12 and u.min() >= -1e-12


def test_capacity_concentric_spheres_refined():
    ops = _shell_ops(1.0, 4.0, 4, 8)
    cap, _u, _psi = capacity_and_psiL(ops)
    exact = 16 * np.pi / 3
    assert abs(cap - exact) / exact <= 0.02


def test_capacity_decreases_with_outer_radius():
    caps = []
    for r_out, layers in ((2.0, 3), (4.0, 6), (8.0, 9)):
        ops = _shell_ops(1.0, r_out, 2, layers)
        cap, _u, _psi = capacity_and_psiL(ops)
        caps.append(cap)
        analytic = 4 * np.pi / (1.0 - 1.0 / r_out)
        assert abs(cap - analytic) / analytic <= 0.08
    assert caps[0] > caps[1] > caps[2]  # toward 4 pi R as R_out grows


def test_capacity_requires_obstacle():
    from decem.geometries import box_complex

    sc = carve_obstacle(box_complex((2, 2, 2)), set())
    ops = DecOperators(sc.carved)
    with pytest.raises(ValueError):
        capacity_and_psiL(ops)


def test_harmonic_basis_no_obstacle_empty(qft_bundle):
    from decem.geometries import empty_box_scenario

    sc = empty_box_scenario((4, 4, 4))
    ops = DecOperators(sc.carved)
    dec = eig(assemble_laplacian(ops, 1))
    hb = harmonic_basis(dec, ops)
    assert hb.L == 0


def test_harmonic_basis_one_ball(qft_bundle):
    b = qft_bundle
    hb = harmonic_basis(b.dec1, b.ops)
    assert hb.L == 1 and hb.capacity is not None
    cap, u, _psi = capacity_and_psiL(b.ops)
    assert abs(hb.capacity - cap) <= 1e-10 * cap
    assert np.array_equal(hb.potential, u)
    # closed and co-closed
    v = hb.vectors[:, -1]
    assert b.ops.norm(2, b.ops.d(1) @ v) <= 1e-8
    assert b.ops.norm(0, b.ops.apply_codifferential(1, v)) <= 1e-8


def test_harmonic_basis_two_balls():
    sc = canned_scenario("balls:2")
    ops = DecOperators(sc.carved)
    dec = eig(assemble_laplacian(ops, 1), count=8)
    hb = harmonic_basis(dec, ops)
    assert hb.L == 2
    g = hb.vectors.T @ (ops.mass(1) @ hb.vectors)
    assert np.linalg.norm(g - np.eye(2)) <= 1e-10


def test_gap_floor_raises(qft_bundle, monkeypatch):
    import decem.hodge as hodge

    b = qft_bundle
    monkeypatch.setattr(hodge, "GAP_FLOOR", 1e20)
    with pytest.raises(ValueError, match="gap"):
        harmonic_basis(b.dec1, b.ops)


def test_helmholtz_random_orthogonality(qft_bundle):
    b = qft_bundle
    rng = np.random.default_rng(0)
    M = b.ops.mass(1)
    solver = _sparse_solver(b)
    for _ in range(5):
        phi = rng.standard_normal(b.ops.n(1))
        hs = solver.split(phi)
        assert hs.recomposition_error(b.ops, 1) <= 1e-10
        scale = float(phi @ (M @ phi))
        assert abs(hs.harmonic @ (M @ hs.exact)) <= 1e-10 * scale
        assert abs(hs.harmonic @ (M @ hs.coexact)) <= 1e-10 * scale
        assert abs(hs.exact @ (M @ hs.coexact)) <= 1e-10 * scale


def test_helmholtz_harmonic_input(qft_bundle):
    b = qft_bundle
    psi = b.dec1.kernel_basis()[:, 0]
    hs = _sparse_solver(b).split(psi)
    assert b.ops.norm(1, hs.harmonic - psi) <= 1e-10
    assert b.ops.norm(1, hs.exact) <= 1e-10
    assert b.ops.norm(1, hs.coexact) <= 1e-10


def test_helmholtz_closed_input(qft_bundle):
    b = qft_bundle
    rng = np.random.default_rng(1)
    phi = b.ops.d(0) @ rng.standard_normal(b.ops.n(0))
    hs = _sparse_solver(b).split(phi)
    assert b.ops.norm(1, hs.coexact) <= 1e-10 * b.ops.norm(1, phi)
    assert b.ops.norm(1, hs.harmonic) <= 1e-10 * b.ops.norm(1, phi)


def test_helmholtz_coclosed_input(qft_bundle):
    b = qft_bundle
    rng = np.random.default_rng(2)
    phi = b.ops.apply_codifferential(2, rng.standard_normal(b.ops.n(2)))
    hs = _sparse_solver(b).split(phi)
    assert b.ops.norm(1, hs.exact) <= 1e-10 * b.ops.norm(1, phi)


def test_helmholtz_idempotent(qft_bundle):
    b = qft_bundle
    rng = np.random.default_rng(3)
    phi = rng.standard_normal(b.ops.n(1))
    solver = _sparse_solver(b)
    hs = solver.split(phi)
    again = solver.split(hs.exact)
    assert b.ops.norm(1, again.exact - hs.exact) <= 1e-9 * max(b.ops.norm(1, hs.exact), 1.0)
    assert b.ops.norm(1, again.coexact) <= 1e-9 * max(b.ops.norm(1, hs.exact), 1.0)


def test_helmholtz_matches_p0(qft_bundle):
    b = qft_bundle
    rng = np.random.default_rng(4)
    phi = rng.standard_normal(b.ops.n(1))
    hs = _sparse_solver(b).split(phi)
    p0_phi = phi - b.dec1.project_out_kernel(phi)
    assert np.linalg.norm(p0_phi - hs.harmonic) <= 1e-10 * np.linalg.norm(phi)


@pytest.mark.parametrize("case", ["qft_bundle", "hopf_link", "solid_torus", "wormhole_obstacle"])
def test_sparse_split_matches_dense_oracle(case, request):
    """Two paths to the split: the kernel from the partial eig and the scalar and gauged
    cotree solves (as ``run hodge``), against the complete decomposition's kernel and
    Delta^+ by spectral synthesis.  The wormhole's throat class is a closed form that
    no capacity potential gives, so the gauge edges come from more than du."""
    if case == "qft_bundle":
        b = request.getfixturevalue("qft_bundle")
        ops, dec = b.ops, b.dec1
    else:
        ops = DecOperators(canned_scenario(case, 1).carved)
        dec = eig(assemble_laplacian(ops, 1))
    op = assemble_laplacian(ops, 1)
    hb = harmonic_basis(eig(op, count=min(10, ops.n(1) - 2)), ops)
    solver = HelmholtzSolver(op, hb)
    assert solver.hb.L == dec.kernel_dim > 0
    rng = np.random.default_rng(5)
    for _ in range(3):
        phi = rng.standard_normal(ops.n(1))
        got, want = solver.split(phi), dense_split(dec, ops, phi)
        for name in ("harmonic", "exact", "coexact"):
            a, b = getattr(got, name), getattr(want, name)
            assert ops.norm(1, a - b) <= 1e-10 * ops.norm(1, b), name


@pytest.mark.parametrize("name, p, count", [("hopf_link", 2, 1), ("balls:3", 1, 2)])
def test_harmonic_basis_rejects_truncated_kernel(name, p, count):
    """A partial eig whose every eigenvalue is in the kernel may have cut the kernel
    short (dim H^2 = 2 on hopf_link, dim H^1 = 3 on balls:3): its gap ratio is inf."""
    ops = DecOperators(canned_scenario(name, 1).carved)
    dec = eig(assemble_laplacian(ops, p), count=count)
    assert dec.kernel_dim == count and dec.gap_ratio == np.inf
    with pytest.raises(ValueError, match=f"kernel_dim {count} of count {count}"):
        harmonic_basis(dec, ops)


def test_sector_split_wormhole(wormhole_bundle):
    w = wormhole_bundle
    assert w.dec1.kernel_dim == 2
    assert w.q_basis.shape[1] == 1 and w.top_basis.shape[1] == 1
    M = w.ops.mass(1)
    assert abs(float(w.q_basis[:, 0] @ (M @ w.top_basis[:, 0]))) <= 1e-8


def test_threshold_integral_domain_growth():
    """Charged smearing blows up with the truncation radius; neutral does not."""
    charged, neutral = [], []
    for r_out, layers in ((2.0, 4), (3.0, 5), (4.0, 6)):
        ops = _shell_ops(0.5, r_out, 4, layers)
        dec = eig(assemble_laplacian(ops, 1))
        _cap, u, _psi = capacity_and_psiL(ops)
        cplx = ops.complex
        edges = cplx.simplices[1][ops.kept[1]]
        mid = 0.5 * (cplx.vertices[edges[:, 0]] + cplx.vertices[edges[:, 1]])
        loc = (np.linalg.norm(mid, axis=1) < 1.2).astype(float)
        f_charged = loc * (ops.d_full[0] @ u)[ops.kept[1]]
        rng = np.random.default_rng(0)
        x = np.zeros(ops.n(2))
        inner_faces = np.linalg.norm(
            cplx.vertices[cplx.simplices[2][ops.kept[2]]].mean(axis=1), axis=1
        ) < 1.2
        x[inner_faces] = 1.0
        f_neutral = ops.apply_codifferential(2, x)
        for f, acc in ((f_charged, charged), (f_neutral, neutral)):
            phi = dec.project_out_kernel(f)
            phi = phi / max(ops.norm(1, phi), 1e-300)
            acc.append(threshold_integral(dec, phi, delta=0.3))
    assert charged[0] < charged[1] < charged[2]
    growth_charged = charged[2] / charged[0]
    growth_neutral = neutral[2] / neutral[0]
    assert growth_charged > 2.0
    assert growth_charged > 3.0 * growth_neutral


def test_check_harmonic_reports_residual_and_tolerance(qft_bundle):
    import re

    from decem.hodge import HarmonicBasis, _check_harmonic

    ops = qft_bundle.ops
    v = np.random.default_rng(3).standard_normal((ops.n(1), 1))
    res = max(ops.norm(2, ops.d(1) @ v[:, 0]), ops.norm(0, ops.apply_codifferential(1, v[:, 0])))
    want = f"kernel vector 0 is not harmonic: residual {res:.2e} > 1.00e-08"
    with pytest.raises(AssertionError, match=re.escape(want)):
        _check_harmonic(ops, HarmonicBasis(1, v))
