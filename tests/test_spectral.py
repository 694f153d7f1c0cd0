import dataclasses
import re

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from decem.forms import DecOperators, MaterialField
from decem.geometries import box_complex, canned_scenario, chain_complex
from decem.spectral import (
    KERNEL_THRESHOLD,
    LaplaceOperator,
    _check_residuals,
    _norm_estimate,
    _shift_inverse,
    _symmetric_factor,
    assemble_laplacian,
    eig,
    LanczosCalculus,
    inverse_sqrt_quadrature,
    pseudo_inverse,
)
from decem.qft import _power

import laplacian_reference


@pytest.fixture(scope="module")
def box_ops():
    return DecOperators(box_complex((3, 3, 3)))


def test_dirichlet_laplacian_matches_direct_p1_assembly(box_ops):
    """Independent oracle: assemble the P1 Dirichlet stiffness from gradients."""
    ops = box_ops
    cplx = ops.complex
    from decem.forms import _cell_geometry

    vols, grads, _gram = _cell_geometry(cplx)
    cells = cplx.simplices[3]
    idx0 = {tuple(row): i for i, row in enumerate(cplx.simplices[0])}
    n0 = cplx.n(0)
    S = np.zeros((n0, n0))
    for c in range(len(cells)):
        rows = [idx0[(int(v),)] for v in cells[c]]
        local = vols[c] * (grads[c] @ grads[c].T)
        for a, ra in enumerate(rows):
            for b, rb in enumerate(rows):
                S[ra, rb] += local[a, b]
    keep = ops.kept[0]
    S = S[np.ix_(keep, keep)]
    L0 = assemble_laplacian(ops, 0)
    assert np.abs(L0.up.toarray() - S).max() <= 1e-12 * np.abs(S).max()


def test_chain_dirichlet_eigenvalues_analytic():
    n = 8
    ops = DecOperators(chain_complex(n))
    dec = eig(assemble_laplacian(ops, 0))
    h = 1.0 / n
    k = np.arange(1, n)
    analytic = (6 / h**2) * (1 - np.cos(k * np.pi * h)) / (2 + np.cos(k * np.pi * h))
    assert np.allclose(np.sort(dec.evals), np.sort(analytic), rtol=1e-12)


def test_hodge_commutation(box_ops):
    ops = box_ops
    L1 = assemble_laplacian(ops, 1)
    L2 = assemble_laplacian(ops, 2)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(ops.n(1))
    lap1 = ops.mass_factor(1).solve(np.asarray(L1.S @ x))
    lap2_of_dx = ops.mass_factor(2).solve(np.asarray(L2.S @ (ops.d(1) @ x)))
    lhs = ops.d(1) @ lap1
    scale = ops.norm(2, lhs)
    assert ops.norm(2, lhs - lap2_of_dx) <= 1e-10 * scale
    # delta~ Delta = Delta delta~
    y = rng.standard_normal(ops.n(2))
    lap2 = ops.mass_factor(2).solve(np.asarray(L2.S @ y))
    lhs2 = ops.apply_codifferential(2, lap2)
    rhs2 = ops.mass_factor(1).solve(np.asarray(L1.S @ ops.apply_codifferential(2, y)))
    assert ops.norm(1, lhs2 - rhs2) <= 1e-10 * max(ops.norm(1, lhs2), 1.0)


def test_kernel_of_delta0_on_carved_is_trivial():
    from decem.geometries import canned_scenario

    sc = canned_scenario("balls:1")
    ops = DecOperators(sc.carved)
    dec = eig(assemble_laplacian(ops, 0), count=4)
    assert dec.kernel_dim == 0


def test_apply_function_policies(qft_bundle):
    """The kernel policies of the dense synthesis: a function zero at 0 drops the
    kernel ('exclude'), any other takes its value at 0 there ('include')."""
    b = qft_bundle
    dec = b.dec1
    rng = np.random.default_rng(1)
    x = rng.standard_normal(b.ops.n(1))
    # lam^0 off the kernel, 0 on it: x - P0 x
    y = dec.functions(x, [_power(0.0)])[0]
    assert np.linalg.norm(y - dec.project_out_kernel(x)) <= 1e-10 * np.linalg.norm(x)
    # cos(0 sqrt(Delta)) x = x
    z = dec.functions(x, [lambda lam: np.cos(0.0 * lam)])[0]
    assert np.linalg.norm(z - x) <= 1e-12 * np.linalg.norm(x)
    # a function singular at 0 on a nontrivial kernel -> error
    with np.errstate(divide="ignore"):
        with pytest.raises(ValueError):
            dec.functions(x, [lambda lam: 1.0 / lam])


def test_sinc_on_eigenvector(qft_bundle):
    dec = qft_bundle.dec1
    i = dec.kernel_dim + 3
    v = dec.vectors[:, i]
    lam = np.sqrt(dec.evals[i])
    t = 0.7
    y = dec.functions(v, [lambda lam: t * np.sinc(t * lam / np.pi)])[0]
    assert np.linalg.norm(y - np.sin(t * lam) / lam * v) <= 1e-10


def test_spectral_mapping_composition(qft_bundle):
    """Applying f then g equals applying the pointwise product (f.g)(Delta)."""
    dec = qft_bundle.dec0
    rng = np.random.default_rng(2)
    x = rng.standard_normal(qft_bundle.ops.n(0))
    f = lambda lam: 1.0 / (1.0 + lam**2)
    g = lambda lam: lam
    composed = dec.functions(dec.functions(x, [g])[0], [f])[0]
    product = dec.functions(x, [lambda lam: f(lam) * g(lam)])[0]
    assert np.linalg.norm(composed - product) <= 1e-10 * np.linalg.norm(x)


def test_kernel_projector_properties(qft_bundle):
    """P0 = K K^T M, the M-orthogonal projector onto the kernel basis K."""
    dec = qft_bundle.dec1
    M = qft_bundle.ops.mass(1).toarray()
    K = dec.kernel_basis()
    P0 = K @ (K.T @ M)
    assert np.linalg.norm(P0 @ P0 - P0) <= 1e-10
    assert np.linalg.norm(M @ P0 - (M @ P0).T) <= 1e-10 * np.abs(M @ P0).max()
    k = dec.kernel_basis()[:, 0]
    assert np.linalg.norm(P0 @ k - k) <= 1e-12
    # trivial kernel case
    dec0 = qft_bundle.dec0
    eye0 = np.eye(qft_bundle.ops.n(0))
    P00 = eye0 - dec0.project_out_kernel(eye0)
    assert np.abs(P00).max() == 0


def test_inverse_sqrt_quadrature_eigenvector(qft_bundle):
    b = qft_bundle
    dec = b.dec1
    i = dec.kernel_dim + 5
    v = dec.vectors[:, i]
    lam2 = dec.evals[i]
    y = inverse_sqrt_quadrature(
        b.L1, v, kernel_basis=dec.kernel_basis(),
        spectrum_bounds=(dec.evals[dec.kernel_dim], dec.evals[-1]),
    )
    assert np.linalg.norm(y - v / np.sqrt(lam2)) <= 1e-8 / np.sqrt(lam2)


def test_inverse_sqrt_quadrature_random_agreement(qft_bundle):
    b = qft_bundle
    dec = b.dec1
    rng = np.random.default_rng(3)
    bounds = (dec.evals[dec.kernel_dim], dec.evals[-1])
    X = np.column_stack(
        [dec.project_out_kernel(rng.standard_normal(b.ops.n(1))) for _ in range(10)]
    )
    Y_quad = inverse_sqrt_quadrature(
        b.L1, X, kernel_basis=dec.kernel_basis(), spectrum_bounds=bounds
    )
    worst = 0.0
    for x, y_quad in zip(X.T, Y_quad.T):
        y_eig = dec.functions(x, [_power(-1.0)])[0]
        worst = max(worst, np.linalg.norm(y_quad - y_eig) / np.linalg.norm(y_eig))
    assert worst <= 1e-8


def test_inverse_sqrt_quadrature_panel_refinement(qft_bundle):
    b = qft_bundle
    dec = b.dec1
    rng = np.random.default_rng(4)
    x = dec.project_out_kernel(rng.standard_normal(b.ops.n(1)))
    y_eig = dec.functions(x, [_power(-1.0)])[0]
    bounds = (dec.evals[dec.kernel_dim], dec.evals[-1])
    errs = []
    for panels in ((1, 4), (2, 6), (4, 8)):
        y = inverse_sqrt_quadrature(
            b.L1, x, panels=panels, kernel_basis=dec.kernel_basis(), spectrum_bounds=bounds
        )
        errs.append(np.linalg.norm(y - y_eig) / np.linalg.norm(y_eig))
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] <= 1e-8


def test_inverse_sqrt_quadrature_rejects_kernel_component(qft_bundle):
    b = qft_bundle
    dec = b.dec1
    x = dec.kernel_basis()[:, 0] + 0.0
    with pytest.raises(ValueError, match="kernel"):
        inverse_sqrt_quadrature(b.L1, x, kernel_basis=dec.kernel_basis())


def test_eig_orthonormality_and_residual(qft_bundle):
    dec = qft_bundle.dec1
    M = qft_bundle.ops.mass(1).toarray()
    G = dec.vectors.T @ M @ dec.vectors
    assert np.linalg.norm(G - np.eye(G.shape[0])) <= 1e-10 * G.shape[0]


def _numbers(message: str, pattern: str) -> tuple[float, float]:
    m = re.fullmatch(pattern, message)
    assert m, message
    return float(m[1]), float(m[2])


def test_check_residuals_reports_planted_eigenvector(box_ops):
    """A rotated eigenpair keeps M-orthonormality but breaks the residual."""
    L1 = assemble_laplacian(box_ops, 1)
    dec = eig(L1)
    V = dec.vectors.copy()
    c, s = np.cos(0.1), np.sin(0.1)
    V[:, 0] = c * dec.vectors[:, 0] + s * dec.vectors[:, -1]
    V[:, -1] = -s * dec.vectors[:, 0] + c * dec.vectors[:, -1]
    with pytest.raises(AssertionError) as err:
        _check_residuals(L1, dataclasses.replace(dec, vectors=V))
    got, tol = _numbers(str(err.value), r"eigenpair residual (\S+) > (\S+)")
    want = max(
        np.linalg.norm(L1.S @ V[:, j] - dec.evals[j] * (L1.M @ V[:, j])) for j in (0, -1)
    )
    assert got == pytest.approx(want, rel=1e-2)
    assert tol == pytest.approx(1e-8 * dec.max_eval, rel=1e-2)


def test_check_residuals_reports_orthonormality(box_ops):
    L1 = assemble_laplacian(box_ops, 1)
    dec = eig(L1)
    V = dec.vectors.copy()
    V[:, 0] *= 1.001
    with pytest.raises(AssertionError) as err:
        _check_residuals(L1, dataclasses.replace(dec, vectors=V))
    got, tol = _numbers(str(err.value), r"eigenvectors not M-orthonormal: (\S+) > (\S+)")
    assert got == pytest.approx(1.001**2 - 1.0, rel=1e-2)
    assert tol < 1e-8


def test_eig_reports_negative_eigenvalue(box_ops):
    L1 = assemble_laplacian(box_ops, 1)
    dec = eig(L1)
    # the up-term flipped; the top eigenvalue of Delta_1 on this box is coexact
    flipped = LaplaceOperator(1, box_ops, -L1.up, L1.M, L1.K)
    with pytest.raises(AssertionError) as err:
        eig(flipped)
    got, tol = _numbers(
        str(err.value), r"Laplacian has significantly negative eigenvalues: (\S+) < (\S+)"
    )
    assert got == pytest.approx(-dec.evals[-1], rel=1e-2)
    assert tol == pytest.approx(-1e-10)


@pytest.mark.parametrize("planted", ["shift_invert", "every_call"])
def test_spectrum_bounds_failure_is_loud(box_ops, monkeypatch, planted):
    """A failing eigsh must surface, not fall back to a guessed spectral gap."""
    L1 = assemble_laplacian(box_ops, 1)
    x = np.random.default_rng(5).standard_normal(box_ops.n(1))
    real_eigsh = spla.eigsh

    def eigsh(*args, **kwargs):
        if planted == "every_call":
            raise RuntimeError("planted eigsh failure")
        if "sigma" in kwargs:
            raise spla.ArpackNoConvergence("planted no convergence", np.zeros(0), np.zeros((0, 0)))
        return real_eigsh(*args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", eigsh)
    expected = RuntimeError if planted == "every_call" else spla.ArpackNoConvergence
    with pytest.raises(expected, match="planted"):
        inverse_sqrt_quadrature(L1, x)


def test_norm_estimate_fallback_warns(box_ops, monkeypatch):
    """ARPACK failing in the norm estimate is reported with the bound used."""
    L1 = assemble_laplacian(box_ops, 1)

    def eigsh(*args, **kwargs):
        raise spla.ArpackNoConvergence("planted no convergence", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(spla, "eigsh", eigsh)
    with pytest.warns(RuntimeWarning, match="ARPACK did not converge") as rec:
        bound = _norm_estimate(L1)
    assert len(rec) == 1
    m = re.search(r"planted no convergence.*power-iteration bound (\S+)$", str(rec[0].message))
    assert m, str(rec[0].message)
    assert float(m[1]) == pytest.approx(bound, rel=1e-6)
    monkeypatch.undo()
    assert bound >= eig(L1).evals[-1]


@pytest.fixture(scope="module")
def solid_torus_ops():
    return DecOperators(canned_scenario("solid_torus", 1).carved)


@pytest.mark.parametrize("p", [1, 2])
def test_partial_eig_matches_dense(solid_torus_ops, p):
    """The shift-invert partial solve finds the lowest dense eigenvalues."""
    op = assemble_laplacian(solid_torus_ops, p)
    k = 10
    part, full = eig(op, count=k), eig(op)
    assert part.kernel_dim == full.kernel_dim > 0
    assert np.abs(part.evals - full.evals[:k]).max() <= 1e-10 * full.max_eval


def test_partial_eig_is_bit_reproducible():
    """Fixed-seed ARPACK start vectors: repeated partial solves give identical bases."""
    ops = DecOperators(canned_scenario("solid_torus", 1).carved)
    op = assemble_laplacian(ops, 2)
    bases = [eig(op, count=4).kernel_basis() for _ in range(3)]
    assert bases[0].shape[1] > 0
    assert all(np.array_equal(bases[0], b) for b in bases[1:])


def test_partial_eig_estimates_norm_once(box_ops, monkeypatch):
    """The shift and max_eval of eig(count=k) share one norm estimate."""
    import decem.spectral as spectral

    calls = []
    real = spectral._norm_estimate

    def counting(op):
        calls.append(op)
        return real(op)

    monkeypatch.setattr(spectral, "_norm_estimate", counting)
    dec = eig(assemble_laplacian(box_ops, 1), count=4)
    assert len(calls) == 1
    assert dec.max_eval == pytest.approx(real(calls[0]))


def test_lam_is_bitwise_the_kernel_zeroed_root(qft_bundle):
    """dec.lam equals sqrt(max(lambda^2, 0)) with the kernel zeroed, bit for bit."""

    def parent_lam(dec):
        lam2 = dec.evals.copy()
        lam2[: dec.kernel_dim] = 0.0
        return np.sqrt(np.maximum(lam2, 0.0))

    for dec in (qft_bundle.dec0, qft_bundle.dec1, qft_bundle.dec2):
        assert np.array_equal(dec.lam, parent_lam(dec))
        assert not np.any(dec.lam[: dec.kernel_dim])
    dec = qft_bundle.dec1
    first = dec.lam
    first[:] = -1.0  # a caller's copy: the next access is computed afresh
    assert np.array_equal(dec.lam, parent_lam(dec))
    moved = dataclasses.replace(dec, evals=4.0 * dec.evals)
    assert np.array_equal(moved.lam, 2.0 * parent_lam(dec))


def test_partial_decomposition_has_no_operator_functions(qft_bundle):
    dec = eig(assemble_laplacian(qft_bundle.ops, 1), count=6)
    assert dec.kernel_dim > 0
    with pytest.raises(ValueError, match="complete exact decomposition"):
        dec.lam
    x = np.ones(qft_bundle.ops.n(1))
    with pytest.raises(ValueError, match="complete exact decomposition"):
        dec.functions(x, [np.cos])
    with pytest.raises(ValueError, match="complete exact decomposition"):
        dec.pseudo_inverse(x)


def test_quadrature_kernel_component_reports_value(qft_bundle):
    b = qft_bundle
    K = b.dec1.kernel_basis()
    x = K[:, 0] + 1e-3 * b.dec1.vectors[:, -1]
    M = b.L1.M
    rel = np.linalg.norm(K.T @ (M @ x)) / np.sqrt(x @ (M @ x))
    with pytest.raises(ValueError, match=re.escape(f"relative {rel:.2e} > 1.00e-08")):
        inverse_sqrt_quadrature(b.L1, x, kernel_basis=K, spectrum_bounds=(1.0, 2.0))


def test_pseudo_inverse_matches_spectral_synthesis(qft_bundle):
    """Two paths to Delta^+ on a block: shifted refinement against 1/m on the complete system."""
    b, dec = qft_bundle, qft_bundle.dec1
    X = np.random.default_rng(8).standard_normal((b.L1.n, 4))
    X = np.column_stack([dec.project_out_kernel(x) for x in X.T])
    factor = _shift_inverse(b.L1, -1e-6 * dec.max_eval)
    Y = pseudo_inverse(b.L1, factor, dec.kernel_basis(), X)
    for x, y in zip(X.T, Y.T):
        want = dec.pseudo_inverse(x)
        assert b.ops.norm(1, y - want) <= 1e-10 * b.ops.norm(1, want)


def test_pseudo_inverse_rejects_kernel_component(qft_bundle):
    b = qft_bundle
    K = b.dec1.kernel_basis()
    x = K[:, 0] + 1e-3 * b.dec1.vectors[:, -1]
    M = b.L1.M
    rel = np.linalg.norm(K.T @ (M @ x)) / np.sqrt(x @ (M @ x))
    factor = _shift_inverse(b.L1, -1e-6 * b.dec1.max_eval)
    with pytest.raises(ValueError, match=re.escape(f"relative {rel:.2e} > 1.00e-08")):
        pseudo_inverse(b.L1, factor, K, x)


def test_pseudo_inverse_iteration_cap_reports_values(qft_bundle, monkeypatch):
    import decem.spectral as spectral

    b, dec = qft_bundle, qft_bundle.dec1
    x = dec.project_out_kernel(np.random.default_rng(9).standard_normal(b.L1.n))
    Mx = b.L1.M @ x
    factor = _shift_inverse(b.L1, -1e-6 * dec.max_eval)
    one_step = factor @ Mx
    want = np.linalg.norm(Mx - b.L1.S @ one_step) / np.linalg.norm(Mx)
    monkeypatch.setattr(spectral, "PINV_MAX_ITER", 1)
    with pytest.raises(AssertionError, match=r"residual \S+ > 1\.00e-13 after 1 iterations") as exc:
        pseudo_inverse(b.L1, factor, dec.kernel_basis(), x)
    got = float(re.search(r"residual (\S+) >", str(exc.value))[1])
    assert got == pytest.approx(want, rel=1e-2) and got > 1e-13


def test_partial_eig_returns_its_shifted_factor(qft_bundle):
    """A partial eig of the exact Delta_1 returns (S - sigma M)^-1 at its own sigma =
    -1e-6 max_eval, bit for bit against a fresh factor; a dense eig returns none."""
    b = qft_bundle
    low, factor = eig(b.L1, count=10, return_factor=True)
    x = np.random.default_rng(10).standard_normal(b.L1.n)
    assert np.array_equal(factor @ x, _shift_inverse(b.L1, -1e-6 * low.max_eval) @ x)
    assert eig(b.L1, "all", return_factor=True)[1] is None


def _krylov_reference(op, x, f, m):
    """f(Delta) x from an m-dimensional Krylov space, built apart from LanczosCalculus:
    Gram-Schmidt twice against every earlier vector, and T = Q^T S Q formed in full."""
    solve = spla.splu(sp.csc_matrix(op.M)).solve
    nrm = np.sqrt(x @ (op.M @ x))
    Q = [x / nrm]
    while len(Q) < m:
        w = solve(op.S @ Q[-1])
        for _ in range(2):
            for q in Q:
                w = w - (q @ (op.M @ w)) * q
        Q.append(w / np.sqrt(w @ (op.M @ w)))
    Q = np.column_stack(Q)
    theta, U = np.linalg.eigh(Q.T @ (op.S @ Q))
    return nrm * Q @ (U @ (f(np.sqrt(np.maximum(theta, 0.0))) * U[0]))


def test_lanczos_step_cap_reports_values(qft_bundle, monkeypatch):
    """A run cut at the step cap reports its last coefficient change, the tolerance
    and the step count; the change is that between the 10- and 20-step Krylov
    approximations, in the M-norm relative to the latter."""
    import decem.spectral as spectral

    b, dec = qft_bundle, qft_bundle.dec1
    t = 10.0 / np.sqrt(dec.evals[dec.kernel_dim])
    f = lambda lam: np.cos(t * lam)
    x = np.random.default_rng(20).standard_normal(b.L1.n)
    y10, y20 = (_krylov_reference(b.L1, x, f, m) for m in (10, 20))
    want = b.ops.norm(1, y20 - y10) / b.ops.norm(1, y20)
    calc = spectral.LanczosCalculus(b.L1, dec.kernel_basis())
    monkeypatch.setattr(spectral, "LANCZOS_MAX_STEPS", 20)
    with pytest.raises(AssertionError, match=r"change \S+ > 1\.00e-13 after 20 steps") as exc:
        calc.functions(x, [f])
    got = float(re.search(r"change (\S+) >", str(exc.value))[1])
    assert got == pytest.approx(want, rel=1e-2) and got > 1e-13


def test_function_infinite_at_zero_raises(qft_bundle):
    """The kernel takes f(0), so with a kernel both calculi reject an f infinite there."""
    import decem.spectral as spectral

    b, dec = qft_bundle, qft_bundle.dec1
    assert dec.kernel_dim > 0
    x = np.random.default_rng(22).standard_normal(b.L1.n)
    f = lambda lam: 1.0 / np.sqrt(lam)
    calc = spectral.LanczosCalculus(b.L1, dec.kernel_basis())
    with np.errstate(divide="ignore"):
        with pytest.raises(ValueError, match="not finite at 0"):
            calc.functions(x, [np.cos, f])
        with pytest.raises(ValueError, match="non-finite values"):
            dec.functions(x, [np.cos, f])


def test_lanczos_reuses_a_converged_basis(qft_bundle):
    """A second call on the same start cochain takes no new steps and returns the same
    rows; a function that needs more steps extends the basis."""
    import decem.spectral as spectral

    b, dec = qft_bundle, qft_bundle.dec1
    t = 10.0 / np.sqrt(dec.evals[dec.kernel_dim])
    x = np.random.default_rng(23).standard_normal(b.L1.n)
    short = [lambda lam: np.cos(0.1 * t * lam)]
    calc = spectral.LanczosCalculus(b.L1, dec.kernel_basis())
    y = calc.functions(x, short)
    first = calc.steps
    assert first > 0
    assert np.array_equal(calc.functions(x.copy(), short), y) and calc.steps == first
    calc.functions(x, [lambda lam: np.cos(t * lam)])
    assert calc.steps > first


@pytest.fixture(scope="module")
def balls1_laplacians():
    """(ops, {p: (Delta_p, its dense eig, its partial eig)}) for p = 0, 1 on balls:1 res 1."""
    ops = DecOperators(canned_scenario("balls:1").carved)
    laps = {}
    for p in (0, 1):
        op = assemble_laplacian(ops, p)
        laps[p] = (op, eig(op), eig(op, count=min(10, op.n - 2)))
    return ops, laps


def _block_columns(n, dec, seed):
    """Five start vectors, the last a repeat of the second, each with its own function
    list, so that the columns need different numbers of steps."""
    x = np.random.default_rng(seed).standard_normal((n, 4))
    t = 10.0 / np.sqrt(dec.evals[dec.kernel_dim])
    fss = [
        [lambda lam: np.cos(t * lam), lambda lam: -lam * np.sin(t * lam)],
        [lambda lam: 0.1 * t * np.sinc(0.1 * t * lam / np.pi)],
        [lambda lam: np.cos(0.5 * t * lam), _power(0.5)],
        [lambda lam: np.exp(-lam)],
        [lambda lam: np.cos(t * lam)],
    ]
    return np.column_stack([x, x[:, 1]]), fss


@pytest.mark.parametrize("p", [0, 1])
@pytest.mark.parametrize("calculus", ["dense", "lanczos", "kept"])
def test_block_functions_match_one_call_per_column(balls1_laplacians, calculus, p):
    """Two paths to f(Delta) X: one block call against one call per column, on the
    dense calculus, on a fresh Lanczos calculus, and on one whose bases an earlier
    short call on the same columns built ("kept"), so the block extends kept bases.
    Rows agree to 1e-13 relative in the M-norm; each Lanczos column takes as many
    steps in the block as alone (a repeated start vector shares its kept basis both
    ways)."""
    ops, laps = balls1_laplacians
    op, dense, low = laps[p]
    X, fss = _block_columns(op.n, dense, 70 + p)

    def make():
        if calculus == "dense":
            return dense, []
        calc = LanczosCalculus(op, low.kernel_basis())
        if calculus == "kept":
            t = 10.0 / np.sqrt(dense.evals[dense.kernel_dim])
            calc.functions(X, [[lambda lam: np.cos(0.1 * t * lam)]] * X.shape[1])
        made, real = [], calc._krylov
        calc._krylov = lambda x: made.append(real(x)) or made[-1]
        return calc, made

    block, block_states = make()
    got = block.functions(X, fss)
    single, single_states = make()
    want = [single.functions(x, fs) for x, fs in zip(X.T, fss)]
    assert len(got) == len(want) == X.shape[1]
    for g, w in zip(got, want):
        assert g.shape == w.shape
        for g_row, w_row in zip(g, w):
            assert ops.norm(p, g_row - w_row) <= 1e-13 * ops.norm(p, w_row)
    if calculus != "dense":
        steps = [kry.m for kry in block_states]
        assert steps == [kry.m for kry in single_states]
        assert len(set(steps)) > 1 and block.steps == single.steps


def test_dense_pseudo_inverse_takes_a_block(qft_bundle):
    """The dense Delta^+ on an n x 3 block is Delta^+ of each column."""
    b, dec = qft_bundle, qft_bundle.dec1
    X = np.random.default_rng(24).standard_normal((b.L1.n, 3))
    X = np.column_stack([dec.project_out_kernel(x) for x in X.T])
    Y = dec.pseudo_inverse(X)
    assert Y.shape == X.shape
    for x, y in zip(X.T, Y.T):
        want = dec.pseudo_inverse(x)
        assert b.ops.norm(1, y - want) <= 1e-13 * b.ops.norm(1, want)


def test_distinguished_basis_failures_report_values(qft_bundle, wormhole_bundle, monkeypatch):
    import decem.hodge as hodge

    # planted: a capacity potential whose gradient is not harmonic
    b = qft_bundle
    u = np.random.default_rng(2).standard_normal(b.ops.complex.n(0))
    M, K = b.ops.mass(1), b.dec1.kernel_basis()
    du = (b.ops.d_full[0] @ u)[b.ops.kept[1]]
    psi = du / np.sqrt(du @ (M @ du))
    r = psi - K @ (K.T @ (M @ psi))
    off = np.sqrt(abs(r @ (M @ r)))
    with monkeypatch.context() as m:
        m.setattr(hodge, "capacity_and_psiL", lambda ops: (1.0, u, psi))
        with pytest.raises(ValueError, match=re.escape(f"|residual| {off:.2e} > 1.00e-06")):
            hodge.harmonic_basis(b.dec1, b.ops)

    # planted: the Gram eigenvectors of the kernel completion come back scaled by 1.01
    w = wormhole_bundle
    assert w.dec1.kernel_dim == 2
    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (real_eigh(a)[0], 1.01 * real_eigh(a)[1]))
    with pytest.raises(AssertionError, match=r"lost orthonormality: \S+ > 1\.00e-08") as exc:
        hodge.harmonic_basis(w.dec1, w.ops)
    got = float(re.search(r"orthonormality: (\S+) >", str(exc.value))[1])
    assert got == pytest.approx(1.01**2 - 1.0, rel=1e-2)


@pytest.fixture(scope="module")
def topology_ops():
    names = ("balls:3", "hopf_link")
    return {name: DecOperators(canned_scenario(name, 1).carved) for name in names}


@pytest.mark.parametrize("name", ["balls:3", "hopf_link"])
@pytest.mark.parametrize("p", [1, 2])
def test_shift_inverse_matches_explicit_solve(topology_ops, name, p):
    """Two paths to (S - sigma M)^-1 x: the augmented factor against a dense solve with
    the exact S multiplied out (``laplacian_reference``).

    cond(S - sigma M) is about max_eval / |sigma| = 1e6, so the paths may
    differ by 1e6 times the rounding unit; 1e-9 leaves a wide margin.
    """
    ops = topology_ops[name]
    op = assemble_laplacian(ops, p)
    A = laplacian_reference.assemble_laplacian(ops, p).S
    sigma = -1e-6 * _norm_estimate(op)
    M = op.M.tocoo()
    A[M.row, M.col] -= sigma * M.data  # S - sigma M, SPD (sigma < 0), formed in place
    ref = sla.cho_factor(A.T, overwrite_a=True)  # A is symmetric; A.T is Fortran-ordered
    del A
    X = np.random.default_rng(7).standard_normal((op.n, 3))
    OPinv = _shift_inverse(op, sigma)
    for x in X.T:
        want = sla.cho_solve(ref, x)
        assert np.linalg.norm(OPinv @ x - want) <= 1e-9 * np.linalg.norm(want)


@pytest.mark.parametrize("name, dims", [("balls:3", (3, 0)), ("hopf_link", (2, 2))])
def test_partial_eig_kernel_dims_on_topology_meshes(topology_ops, name, dims):
    ops = topology_ops[name]
    decs = [eig(assemble_laplacian(ops, p), count=10) for p in (1, 2)]
    assert tuple(dec.kernel_dim for dec in decs) == dims


@pytest.mark.parametrize("which", ["p0", "stress_pencil"])
def test_shift_inverse_without_down_term_is_the_plain_factor(solid_torus_ops, which):
    """No down-term: zero extra rows, and the solves are the factor of S - sigma M bit for bit."""
    ops = solid_torus_ops
    if which == "p0":
        op = assemble_laplacian(ops, 0)
    else:
        S = (ops.d(1).T @ ops.mass(2) @ ops.d(1)).tocsr()
        op = LaplaceOperator(1, ops, S, ops.mass(1))
    assert op.K is None
    sigma = -1e-6 * _norm_estimate(op)
    x = np.random.default_rng(8).standard_normal(op.n)
    plain = _symmetric_factor(op.up - sigma * op.M).solve(x)
    assert np.array_equal(_shift_inverse(op, sigma) @ x, plain)


# -- two paths: the pencil route against the multiplied-out stiffness -----------------


def _check_against_stiffness(dec, S, M):
    """dec against eigh of the dense pencil (S, M): kernel, eigenvalues, residual, orthonormality."""
    oracle = sla.eigh(S, M.toarray(), eigvals_only=True)
    assert dec.kernel_dim == int(np.sum(np.abs(oracle) < KERNEL_THRESHOLD * oracle[-1]))
    assert np.abs(dec.evals - oracle).max() <= 1e-12 * dec.max_eval
    V = dec.vectors
    MV = M @ V
    assert np.linalg.norm(S @ V - MV * dec.evals[None, :], axis=0).max() <= 1e-8 * dec.max_eval
    assert np.abs(V.T @ MV - np.eye(V.shape[1])).max() <= 1e-10


@pytest.fixture(scope="module")
def oracle_ops():
    return {name: DecOperators(canned_scenario(name, 1).carved)
            for name in ("solid_torus", "wormhole_obstacle")}


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize(
    "name", ["solid_torus", pytest.param("wormhole_obstacle", marks=pytest.mark.slow)]
)
def test_exact_eig_matches_dense_oracle(oracle_ops, name, p):
    """The pencil plus the kernel block against eigh of the dense exact S."""
    ops = oracle_ops[name]
    dec = eig(assemble_laplacian(ops, p))
    assert dec.complete and dec.kernel_dim > 0
    L = laplacian_reference.assemble_laplacian(ops, p)
    _check_against_stiffness(dec, L.S, L.M)


@pytest.mark.parametrize("p", [1, 2])
def test_quadrature_matches_dense_resolvent_solves(qft_bundle, p):
    """The augmented-factor nodes against the same nodes solved with the dense S.

    Panels (4, 2) keep every graded panel, down to the smallest l, at two nodes each.
    """
    b = qft_bundle
    dec = (b.dec1, b.dec2)[p - 1]
    rng = np.random.default_rng(9)
    X = dec.project_out_kernel(rng.standard_normal((b.ops.n(p), 3)))
    bounds = (dec.evals[dec.kernel_dim], dec.evals[-1])
    got = inverse_sqrt_quadrature(
        (b.L1, b.L2)[p - 1], X, panels=(4, 2), kernel_basis=dec.kernel_basis(),
        spectrum_bounds=bounds,
    )
    want = laplacian_reference.inverse_sqrt_quadrature(
        laplacian_reference.assemble_laplacian(b.ops, p), X, (4, 2), bounds
    )
    err = np.linalg.norm(got - want, axis=0) / np.linalg.norm(want, axis=0)
    assert err.max() <= 1e-10


# -- the tree-cotree gauge of the complete eig on 1-cochains ----------------------------


def _one_form_pencil(ops, kind):
    """The stress sides' bare pencil (d1^T M2 d1, M1), or the exact Delta_1."""
    if kind == "exact":
        return assemble_laplacian(ops, 1)
    return LaplaceOperator(1, ops, (ops.d(1).T @ ops.mass(2) @ ops.d(1)).tocsr(), ops.mass(1))


def _edge_kernels_on_pattern(evals, V, kd, M):
    """A+- = V lambda^(+-1/2) V^T over the non-kernel pairs, on the stored entries of M."""
    r = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
    out = []
    for power in (0.5, -0.5):
        W = V[:, kd:] * evals[kd:] ** (0.5 * power)
        out.append((W @ W.T)[r, M.indices])
    return out


def _check_gauged_against_dense(ops):
    """Both 1-form pencils: eigenvalues, kernel_dim and the coexact edge kernels A+- on
    the M_1 pattern against one dense eigh of the whole pencil."""
    oracle = laplacian_reference.dense_pencil_eigs(ops)
    for kind in ("bare", "exact"):
        op = _one_form_pencil(ops, kind)
        dec = eig(op)
        evals, V, kd = oracle[kind]
        assert dec.kernel_dim == kd
        assert np.abs(dec.evals - evals).max() <= 1e-12 * evals[-1]
        got = _edge_kernels_on_pattern(dec.evals, dec.vectors, dec.kernel_dim, op.M)
        want = _edge_kernels_on_pattern(evals, V, kd, op.M)
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


@pytest.fixture(scope="module")
def gauge_ops():
    return {name: DecOperators(canned_scenario(name, 1).carved)
            for name in ("solid_torus", "balls:1")}


@pytest.mark.parametrize("name", ["solid_torus", "balls:1"])
def test_gauged_eig_matches_dense_pencil(gauge_ops, name):
    """The cotree eigensolve lifted back against one dense eigh of the whole pencil,
    for the stress sides' bare pencil and for the exact Delta_1."""
    _check_gauged_against_dense(gauge_ops[name])


@pytest.mark.slow
def test_gauged_eig_matches_dense_pencil_res2():
    _check_gauged_against_dense(DecOperators(canned_scenario("cube_obstacle", 2).carved))


def test_gauged_eigh_sees_the_cotree_rows(monkeypatch, gauge_ops):
    """The dense eighs inside eig(op) on 1-cochains, one per symmetry block (4 on
    solid_torus), have n_1 - rank d_0 rows in all."""
    import decem.spectral as spectral

    shapes, plain = [], sla.eigh

    def recording(a, b=None, **kwargs):
        shapes.append((a.shape, b.shape))
        return plain(a, b, **kwargs)

    monkeypatch.setattr(spectral.sla, "eigh", recording)
    ops = gauge_ops["solid_torus"]
    eig(_one_form_pencil(ops, "bare"))
    c = ops.n(1) - np.linalg.matrix_rank(ops.d(0).toarray())
    assert c < ops.n(1) and len(shapes) == 4
    assert all(a == b and a[0] == a[1] for a, b in shapes)
    assert sum(a[0] for a, _ in shapes) == c


def test_eig_reports_the_character_block_of_each_column(gauge_ops):
    """eig(op, "all") on 1-cochains gives each column the index of its character block;
    on Delta_1 the kernel that kernel_block rotates reads -1 and the other columns keep
    their blocks.  The dense eigh of another degree gives none."""
    ops = gauge_ops["solid_torus"]
    bare = eig(_one_form_pencil(ops, "bare"))
    sizes = [B.shape[1] for B in ops.character_bases(1)]
    assert np.bincount(bare.characters).tolist() == sizes and len(sizes) == 4
    full = eig(_one_form_pencil(ops, "exact"))
    kd = bare.kernel_dim
    assert np.sum(full.characters < 0) == kd
    assert np.array_equal(np.bincount(full.characters[full.characters >= 0]),
                          np.bincount(bare.characters[kd:]))
    assert eig(assemble_laplacian(ops, 0)).characters is None


def test_gauged_eig_on_a_box_with_an_off_centre_obstacle():
    """No isometry of the 5 x 4 x 3 box keeps its off-centre block, so the carved side
    is one block; the reference box keeps its central inversion, two blocks."""
    from decem.mesh import carve_obstacle

    def tag(c):
        return "block" if all(1 < x < 2 for x in c) else ""

    sc = carve_obstacle(box_complex((5, 4, 3), 1, tag), {"block"})
    for cplx, blocks in ((sc.carved, 1), (sc.reference, 2)):
        ops = DecOperators(cplx)
        assert len(ops.character_bases(1)) == blocks
        _check_gauged_against_dense(ops)


def test_gauged_eig_with_blocks_that_hold_no_vertex():
    """The 2 x 2 x 2 box keeps one vertex, which only the trivial character's block
    holds: the other three blocks have no exact forms to gauge."""
    ops = DecOperators(box_complex((2, 2, 2)))
    assert [B.shape[1] for B in ops.character_bases(0)] == [1, 0, 0, 0]
    _check_gauged_against_dense(ops)


def _torus_and_box():
    """A periodic 3 x 3 x 3 box (a 3-torus, no boundary) beside an ordinary 2 x 2 x 2 box.

    The torus's vertices form a component that touches no boundary, so rank d_0 is one
    short of the kept vertex count.  Each cell keeps its unwrapped coordinates.
    """
    from decem.mesh import SimplicialComplex

    a, b = box_complex((3, 3, 3)), box_complex((2, 2, 2))
    ijk = np.round(a.vertices).astype(int) % 3
    wrap = (ijk[:, 0] * 3 + ijk[:, 1]) * 3 + ijk[:, 2]  # 27 torus vertices
    return SimplicialComplex.from_top_cells(
        np.vstack([np.indices((3, 3, 3)).reshape(3, -1).T, b.vertices + 10.0]),
        np.vstack([wrap[a.simplices[3]], b.simplices[3] + 27]),
        cell_coords=np.vstack([a.cell_vertex_coords(), b.cell_vertex_coords() + 10.0]),
    )


def test_gauge_roots_a_component_without_boundary_at_its_own_vertex():
    from decem.spectral import _spanning_forest

    ops = DecOperators(_torus_and_box())
    d0 = ops.d(0)
    tree, cols = _spanning_forest(d0)
    rank = np.linalg.matrix_rank(d0.toarray())
    assert rank == ops.n(0) - 1 == len(cols) == len(tree)
    assert abs(np.linalg.det(d0[tree][:, cols].toarray())) == 1.0
    _check_gauged_against_dense(ops)
    assert eig(assemble_laplacian(ops, 1)).kernel_dim == 3  # the torus's H^1
