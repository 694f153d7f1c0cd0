import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decem.qft import PARTS, FieldCalculus, FormTerm, TestForm, _power
from decem.timeprofiles import Impulse, TimeProfile


def _rand_form2(b, seed):
    rng = np.random.default_rng(seed)
    g1 = TimeProfile.bump(-0.7 + 0.2 * rng.random(), 0.5 + 0.4 * rng.random())
    g2 = TimeProfile.bump(-0.4, 0.8)
    return TestForm(
        2,
        [
            FormTerm(g1, "e", rng.standard_normal(b.ops.n(1))),
            FormTerm(g2, "b", rng.standard_normal(b.ops.n(2))),
        ],
    )


def _rand_form1(b, seed):
    rng = np.random.default_rng(seed)
    return TestForm(
        1,
        [
            FormTerm(TimeProfile.bump(-0.5, 0.6), "dt", rng.standard_normal(b.ops.n(0))),
            FormTerm(TimeProfile.bump(-0.3, 0.7), "spatial", rng.standard_normal(b.ops.n(1))),
        ],
    )


def test_impulse_form_cauchy_data(qft_bundle):
    b = qft_bundle
    rng = np.random.default_rng(0)
    A = rng.standard_normal(b.ops.n(1))
    data = b.fc.propagate_G(TestForm(1, [FormTerm(Impulse(0.0, 0), "spatial", A)]))
    assert np.abs(data.phi).max() == 0 and np.abs(data.phidot).max() == 0
    assert np.linalg.norm(data.A) <= 1e-12
    assert np.linalg.norm(data.Adot - A) <= 1e-10 * np.linalg.norm(A)


def test_zero_form_zero_data(qft_bundle):
    b = qft_bundle
    data = b.fc.propagate_G(TestForm(1, []))
    assert np.abs(data.A).max() == 0 and np.abs(data.phi).max() == 0


def test_propagate_matches_evolution_oracle(qft_bundle):
    """Data of Gf for f supported in t in [2,3]: backward-evolve the retarded wave."""
    from decem.maxwell import wave

    b = qft_bundle
    rng = np.random.default_rng(1)
    g = TimeProfile.bump(2.0, 3.0)
    c = rng.standard_normal(b.ops.n(1))
    f = TestForm(1, [FormTerm(g, "spatial", c)])
    data = b.fc.propagate_G(f)
    chat = b.dec1.coefficients(c)
    t_star = 3.0
    lam = b.dec1.lam
    # retarded solution at t_star and its derivative
    val = g.sinc_moment(lam, t_star, (2.0, 3.0)) * chat
    dva = g.cos_moment(lam, t_star, (2.0, 3.0)) * chat
    # backward homogeneous evolution to t = 0
    V = b.dec1.vectors
    (v0,), (d0,), _ = wave(b.dec1, V @ val, V @ dva, [], [-t_star])
    assert np.linalg.norm(v0 - data.A) <= 1e-9 * max(np.linalg.norm(data.A), 1.0)
    assert np.linalg.norm(d0 - data.Adot) <= 1e-9 * max(np.linalg.norm(data.Adot), 1.0)


def test_pairing_G_antisymmetric(qft_bundle):
    b = qft_bundle
    f1 = b.fc.codifferential_form(_rand_form2(b, 2))
    f2 = b.fc.codifferential_form(_rand_form2(b, 3))
    g11 = b.fc.pairing_G(f1, f1)
    g12 = b.fc.pairing_G(f1, f2)
    g21 = b.fc.pairing_G(f2, f1)
    assert abs(g11) <= 1e-12 * max(abs(g12), 1.0)
    assert abs(g12 + g21) <= 1e-12 * max(abs(g12), 1.0)


def test_impulse_pairs_reproduce_canonical_symplectic(qft_bundle):
    b = qft_bundle
    rng = np.random.default_rng(4)
    A1, A2 = rng.standard_normal((2, b.ops.n(1)))
    f1 = TestForm(1, [FormTerm(Impulse(0.0, 0), "spatial", A1)])
    f2 = TestForm(1, [FormTerm(Impulse(0.0, 1), "spatial", A2)])
    # data: f1 -> (0, A1); f2 -> (A2, 0): G = <Adot1, A2> - <A1, Adot2> = -<A2, A1>... wait
    got = b.fc.pairing_G(f1, f2)
    d1, d2 = b.fc.propagate_G(f1), b.fc.propagate_G(f2)
    want = float(
        -(d1.phidot @ (b.ops.mass(0) @ d2.phi)) + d1.Adot @ (b.ops.mass(1) @ d2.A)
        + (d1.phi @ (b.ops.mass(0) @ d2.phidot)) - d1.A @ (b.ops.mass(1) @ d2.Adot)
    )
    assert abs(got - want) <= 1e-10 * max(abs(want), 1.0)


def test_krein_product_signature(qft_bundle):
    b = qft_bundle
    from decem.qft import KreinVector

    s = np.zeros(b.ops.n(0), dtype=complex)
    s[0] = 1.0
    nrm0 = float(np.real(np.conj(s) @ (b.ops.mass(0).toarray() @ s)))
    k_scalar = KreinVector(scalar=s / np.sqrt(nrm0), vector=np.zeros(b.ops.n(1), dtype=complex))
    assert abs(b.fc.krein_product(k_scalar, k_scalar) + 1.0) <= 1e-12
    v = np.zeros(b.ops.n(1), dtype=complex)
    v[0] = 1.0
    nrm1 = float(np.real(np.conj(v) @ (b.ops.mass(1).toarray() @ v)))
    k_vec = KreinVector(scalar=np.zeros(b.ops.n(0), dtype=complex), vector=v / np.sqrt(nrm1))
    assert abs(b.fc.krein_product(k_vec, k_vec) - 1.0) <= 1e-12


def test_krein_swap_conjugate(qft_bundle):
    b = qft_bundle
    k1 = b.fc.kappa(b.fc.codifferential_form(_rand_form2(b, 5)))
    k2 = b.fc.kappa(b.fc.codifferential_form(_rand_form2(b, 6)))
    z12 = b.fc.krein_product(k1, k2)
    z21 = b.fc.krein_product(k2, k1)
    assert abs(z12 - np.conj(z21)) <= 1e-10 * max(abs(z12), 1.0)


def test_kappa_of_box_vanishes(qft_bundle):
    b = qft_bundle
    h = _rand_form1(b, 7)
    kb = b.fc.kappa(b.fc.box_form(h))
    scale = np.linalg.norm(b.fc.kappa(h).vector) + np.linalg.norm(b.fc.kappa(h).scalar)
    assert np.linalg.norm(kb.scalar) + np.linalg.norm(kb.vector) <= 1e-8 * max(scale, 1.0)


def test_kappa_zero_form(qft_bundle):
    b = qft_bundle
    k = b.fc.kappa(TestForm(1, []))
    assert np.abs(k.scalar).max() == 0 and np.abs(k.vector).max() == 0


def test_kappa_symplectic_identity(qft_bundle):
    """Im<kappa f1, kappa f2> = G(f1,f2) - G_Z(f1,f2) on random pairs."""
    b = qft_bundle
    worst = 0.0
    for seed in range(4):
        f1 = b.fc.codifferential_form(_rand_form2(b, 10 + seed))
        f2 = _rand_form1(b, 20 + seed)
        im = b.fc.krein_product(b.fc.kappa(f1), b.fc.kappa(f2)).imag
        G = b.fc.pairing_G(f1, f2)
        GZ = b.fc.GZ(f1, f2)
        scale = max(abs(im), abs(G), 1.0)
        worst = max(worst, abs(im - G + GZ) / scale)
    assert worst <= 1e-8


def test_kappa_positive_on_coclosed(qft_bundle):
    """<kappa f, kappa f> >= 0 and equals the closed-form expression."""
    b = qft_bundle
    f = b.fc.codifferential_form(_rand_form2(b, 30))
    k = b.fc.kappa(f)
    val = b.fc.krein_product(k, k)
    assert val.real >= -1e-10 and abs(val.imag) <= 1e-10 * max(val.real, 1.0)
    data = b.fc.propagate_G(f)
    dA = b.ops.d(1) @ data.A
    dAd = b.ops.d(1) @ data.Adot
    inv, inv3 = [_power(-1.0)], [_power(-3.0)]  # Delta^(-1/2) and Delta^(-3/2) off the kernel
    want = b.ops.inner(2, b.dec2.functions(dA, inv)[0], dA) + b.ops.inner(
        2, b.dec2.functions(dAd, inv3)[0], dAd
    )
    assert abs(val.real - want) <= 1e-8 * max(abs(want), 1.0)


def test_kappa_real_orthogonality(qft_bundle):
    """Re<kappa(dU), kappa(f)> = 0 for co-closed f and for f = dU2."""
    b = qft_bundle
    rng = np.random.default_rng(31)
    U = TestForm(1, [FormTerm(TimeProfile.bump(-0.4, 0.5), "dt", rng.standard_normal(b.ops.n(0)))])
    # d of a spacetime function: terms (g', dt, u) + (g, spatial, d0 u)? build via d of 0-form:
    u_c = rng.standard_normal(b.ops.n(0))
    g = TimeProfile.bump(-0.4, 0.5)
    dU = TestForm(1, [FormTerm(g.derivative(), "dt", u_c), FormTerm(g, "spatial", b.ops.d(0) @ u_c)])
    f_cc = b.fc.codifferential_form(_rand_form2(b, 32))
    z = b.fc.krein_product(b.fc.kappa(dU), b.fc.kappa(f_cc))
    assert abs(z.real) <= 1e-8 * max(abs(z), 1.0)
    u2 = rng.standard_normal(b.ops.n(0))
    g2 = TimeProfile.bump(-0.2, 0.6)
    dU2 = TestForm(1, [FormTerm(g2.derivative(), "dt", u2), FormTerm(g2, "spatial", b.ops.d(0) @ u2)])
    z2 = b.fc.krein_product(b.fc.kappa(dU), b.fc.kappa(dU2))
    assert abs(z2.real) <= 1e-8 * max(abs(z2), 1.0, abs(z2.imag))


def test_GZ_antisymmetric_and_coexact_null(qft_bundle):
    b = qft_bundle
    f1 = b.fc.codifferential_form(_rand_form2(b, 33))
    f2 = b.fc.codifferential_form(_rand_form2(b, 34))
    assert abs(b.fc.GZ(f1, f1)) <= 1e-12
    assert abs(b.fc.GZ(f1, f2) + b.fc.GZ(f2, f1)) <= 1e-12
    # vanishes on co-exact pairs
    assert abs(b.fc.GZ(f1, f2)) <= 1e-8


def test_GZ_nonzero_on_general_pairs(qft_bundle):
    """G_Z detects zero-mode content of general (non-coexact) forms."""
    b = qft_bundle
    psi = b.dec1.kernel_basis()[:, 0]
    f1 = TestForm(1, [FormTerm(Impulse(0.0, 0), "spatial", psi)])   # Adot = psi
    f2 = TestForm(1, [FormTerm(Impulse(0.0, 1), "spatial", psi)])   # A = psi
    assert abs(b.fc.GZ(f2, f1)) > 0.5


def test_kappa_eps_independence_on_coclosed(qft_bundle):
    b = qft_bundle
    from decem.spectral import build_Q_eps

    f1 = b.fc.codifferential_form(_rand_form2(b, 35))
    f2 = b.fc.codifferential_form(_rand_form2(b, 36))
    vals = []
    for eps, (rp, rz) in ((1.0, (2.0, 2.8)), (0.9, (1.9, 2.6)), (1.1, (2.1, 2.9))):
        Q = build_Q_eps(b.hb, b.ops, eps=eps, center=np.array([3.0, 3.0, 3.0]),
                        r_plateau=rp, r_zero=rz)
        fc = FieldCalculus(b.ops, b.dec0, b.dec1, Q=Q)
        vals.append(fc.krein_product(fc.kappa(f1), fc.kappa(f2)))
    spread = max(abs(v - vals[0]) for v in vals)
    assert spread <= 1e-6 * max(abs(vals[0]), 1.0)


def test_omega2F_positive_diagonal(qft_bundle):
    b = qft_bundle
    for seed in range(6):
        f = _rand_form2(b, 40 + seed)
        val = b.fc.omega2_F(f, f)
        assert val.real >= -1e-10
        assert abs(val.imag) <= 1e-10 * max(val.real, 1.0)


def test_omega2F_antisymmetric_part(qft_bundle):
    b = qft_bundle
    f1, f2 = _rand_form2(b, 50), _rand_form2(b, 51)
    w12, w21 = b.fc.omega2_F(f1, f2), b.fc.omega2_F(f2, f1)
    G = b.fc.pairing_G(b.fc.codifferential_form(f1), b.fc.codifferential_form(f2))
    assert abs((w12 - w21) + 1j * G) <= 1e-8 * max(abs(w12), 1.0)


def test_omega2F_real_part_of_dh(qft_bundle):
    b = qft_bundle
    h = _rand_form1(b, 52)
    f = _rand_form2(b, 53)
    val = b.fc.omega2_F(b.fc.d_form(h), f)
    assert abs(val.real) <= 1e-8 * max(abs(val), 1.0)


def _rand_form(b, degree, seed):
    """A spacetime form with a random bump profile and cochain on each part."""
    rng = np.random.default_rng(seed)
    terms = []
    for part, p in zip(PARTS[degree], (degree - 1, degree)):
        if part is not None:
            g = TimeProfile.bump(-0.6 + 0.3 * rng.random(), 0.4 + 0.3 * rng.random())
            terms.append(FormTerm(g, part, rng.standard_normal(b.ops.n(p))))
    return TestForm(degree, terms)


def _spacetime_pairing(ops, f, h):
    """int (-<alpha, gamma> + <beta, eta>) dt for f = alpha ^ dt + beta, h = gamma ^ dt + eta.

    Gauss-Legendre between the profiles' support ends, where the bumps and their
    derivatives are polynomials of degree <= 8: 24 nodes integrate each product exactly.
    """
    dt_part, p = PARTS[f.degree][0], f.degree
    ends = sorted({e for t in f.terms + h.terms for e in t.profile.support})
    xs, ws = np.polynomial.legendre.leggauss(24)
    total = 0.0
    for lo, hi in zip(ends[:-1], ends[1:]):
        s, w = 0.5 * (lo + hi) + 0.5 * (hi - lo) * xs, 0.5 * (hi - lo) * ws
        for t1 in f.terms:
            for t2 in h.terms:
                if t1.part == t2.part:
                    sign, q = (-1.0, p - 1) if t1.part == dt_part else (1.0, p)
                    time = w @ (t1.profile(s) * t2.profile(s))
                    total += sign * time * ops.inner(q, t1.cochain, t2.cochain)
    return total


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_codifferential_form_is_adjoint_of_d_form(qft_bundle, degree):
    """<d h, f> = <h, delta f> under the spacetime pairing, for h of degree p - 1."""
    b = qft_bundle
    h, f = _rand_form(b, degree - 1, 70 + degree), _rand_form(b, degree, 80 + degree)
    lhs = _spacetime_pairing(b.ops, b.fc.d_form(h), f)
    rhs = _spacetime_pairing(b.ops, h, b.fc.codifferential_form(f))
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_omega2F_coexact_argument_vanishes(qft_bundle):
    """omega2F(delta~ h, f) = 0 for 3-form h since delta~^2 = 0."""
    b = qft_bundle
    rng = np.random.default_rng(54)
    alpha = rng.standard_normal(b.ops.n(2))
    beta = rng.standard_normal(b.ops.n(3))
    g = TimeProfile.bump(-0.3, 0.5)
    h = TestForm(3, [FormTerm(g, "dt", alpha), FormTerm(g, "spatial", beta)])
    dh = b.fc.codifferential_form(h)
    # the premise: delta~ dh = 0, checked pointwise in time on each degree-1 part
    ddh = b.fc.codifferential_form(dh)
    for t in (-0.2, 0.0, 0.1, 0.35):
        for part in ("dt", "spatial"):
            vals = [term.profile(t) * term.cochain for term in ddh.terms if term.part == part]
            size = max(np.linalg.norm(v) for v in vals)
            assert np.linalg.norm(sum(vals)) <= 1e-8 * max(size, 1.0)
    f = _rand_form2(b, 55)
    val = b.fc.omega2_F(dh, f)
    scale = abs(b.fc.omega2_F(f, f))
    assert abs(val) <= 1e-8 * max(scale, 1.0)


def test_omega2F_impulse_restriction_formula(qft_bundle):
    b = qft_bundle
    rng = np.random.default_rng(56)
    E = rng.standard_normal(b.ops.n(1))
    B = rng.standard_normal(b.ops.n(2))
    f = TestForm(2, [FormTerm(Impulse(), "e", E), FormTerm(Impulse(), "b", B)])
    got = b.fc.omega2_F(f, f)
    inv = [_power(-1.0)]  # Delta^(-1/2) off the kernel
    dE = b.ops.d(1) @ E
    cB = b.ops.apply_codifferential(2, B)
    want = 0.5 * (
        b.ops.inner(2, b.dec2.functions(dE, inv)[0], dE)
        + b.ops.inner(1, b.dec1.functions(cB, inv)[0], cB)
    )
    assert abs(got - want) <= 1e-8 * max(abs(want), 1.0)


def test_time_translation_invariance(qft_bundle):
    b = qft_bundle
    f1, f2 = _rand_form2(b, 57), _rand_form2(b, 58)
    base = b.fc.omega2_F(f1, f2)
    spread = 0.0
    for dt in (0.31, -0.62, 1.0):
        spread = max(spread, abs(b.fc.omega2_F(f1.shifted(dt), f2.shifted(dt)) - base))
    assert spread <= 1e-8 * max(abs(base), 1.0)


def test_wick_two_point_is_omega2(qft_bundle):
    b = qft_bundle
    f1, f2 = _rand_form2(b, 60), _rand_form2(b, 61)
    assert abs(b.fc.wick_npoint([f1, f2]) - b.fc.omega2_F(f1, f2)) <= 1e-12


def test_wick_four_equal(qft_bundle):
    b = qft_bundle
    f = _rand_form2(b, 62)
    w2 = b.fc.omega2_F(f, f)
    w4 = b.fc.wick_npoint([f, f, f, f])
    assert abs(w4 - 3 * w2**2) <= 1e-10 * max(abs(w4), 1.0)


def test_wick_odd_vanishes(qft_bundle):
    b = qft_bundle
    f = _rand_form2(b, 63)
    assert b.fc.wick_npoint([f, f, f]) == 0


@given(n=st.integers(min_value=2, max_value=8).filter(lambda k: k % 2 == 0))
@settings(max_examples=4, deadline=None)
def test_wick_pairing_count(n):
    """With omega2 == 1 the Wick sum counts perfect matchings: (n-1)!!"""

    class Mock:
        def codifferential_form(self, f):
            return f

        def kappa(self, f):
            return f

        def krein_product(self, a, b):
            return 2.0  # omega2 = 0.5 * krein = 1

    from decem.qft import FieldCalculus

    mock = Mock()
    val = FieldCalculus.wick_npoint(mock, [None] * n)
    expect = 1.0
    for k in range(n - 1, 0, -2):
        expect *= k
    assert abs(val - expect) <= 1e-12


def test_zero_mode_expectation_mean_and_variance(wormhole_bundle):
    w = wormhole_bundle
    ops = w.ops
    psi = w.Q.psi_basis
    M = ops.mass(1)
    # alpha localized away from the cutoff transition shell
    cplx = w.scenario.carved
    edges = cplx.simplices[1][ops.kept[1]]
    mid = 0.5 * (cplx.vertices[edges[:, 0]] + cplx.vertices[edges[:, 1]])
    r = np.linalg.norm(mid - np.array([6.0, 3.0, 3.0]), axis=1)
    rng = np.random.default_rng(0)
    alpha = np.where(r < 1.6, rng.standard_normal(ops.n(1)), 0.0)
    g = TimeProfile.bump(-0.3, 0.4)
    f = TestForm(2, [FormTerm(g, "e", alpha)])

    # zero parameters -> zero mean
    zero = np.zeros(ops.n(1))
    out0 = w.fc.zero_mode_expectation(zero, zero, 1.0, 1.0, f, w.q_basis, w.top_basis)
    assert abs(out0.mean) <= 1e-12
    assert not out0.support_flag

    # E_q = psi_L: mean = <psi_L, alpha_bar>
    psiL = psi[:, -1]
    out = w.fc.zero_mode_expectation(zero, psiL, 1.0, 1.0, f, w.q_basis, w.top_basis)
    want = float(psiL @ (M @ alpha)) * g.integral()
    assert abs(out.mean - want) <= 1e-8 * max(abs(want), 1.0)

    # aligned directions: variance = sigma_top^2 + sigma_q^2 exactly
    a_aligned = w.q_basis[:, 0] + w.top_basis[:, 0]
    f2 = TestForm(2, [FormTerm(g, "e", a_aligned)])
    out2 = w.fc.zero_mode_expectation(zero, zero, 0.7, 0.3, f2, w.q_basis, w.top_basis)
    assert out2.support_flag  # harmonic smearings are global: they cross the shell
    assert abs(out2.variance - (0.7**2 + 0.3**2)) <= 1e-8


def test_zero_mode_expectation_top_sector(wormhole_bundle):
    w = wormhole_bundle
    ops = w.ops
    zero = np.zeros(ops.n(1))
    g = TimeProfile.bump(-0.4, 0.6)
    e_top = 0.8 * w.top_basis[:, 0]
    f = TestForm(2, [FormTerm(g, "e", w.top_basis[:, 0])])
    out = w.fc.zero_mode_expectation(e_top, zero, 0.5, 0.1, f, w.q_basis, w.top_basis)
    M = ops.mass(1)
    want = 0.8 * float(w.top_basis[:, 0] @ (M @ w.top_basis[:, 0]))
    assert abs(out.mean - want) <= 1e-8 * abs(want)
    # purely topological smearing: the charge-sector variance does not enter
    assert abs(out.variance - 0.5**2) <= 1e-8


def test_zero_mode_psi_eps_readout_deviation(wormhole_bundle):
    """The cutoff-dual readout agrees with the exact coordinate for kernel
    smearings and is reported as a deviation otherwise."""
    w = wormhole_bundle
    zero = np.zeros(w.ops.n(1))
    g = TimeProfile.bump(-0.3, 0.4)
    psiL = w.Q.psi_basis[:, -1]
    f = TestForm(2, [FormTerm(g, "e", psiL)])
    out = w.fc.zero_mode_expectation(zero, zero, 1.0, 1.0, f, w.q_basis, w.top_basis)
    assert out.psi_eps_deviation <= 1e-8


def test_propagate_G_rejects_partial_decomposition(qft_bundle):
    from decem.spectral import assemble_laplacian, eig

    b = qft_bundle
    partial = eig(assemble_laplacian(b.ops, 1), count=6)
    fc = FieldCalculus(b.ops, b.dec0, partial, Q=b.Q)
    f = TestForm(1, [FormTerm(TimeProfile.bump(-0.3, 0.7), "spatial", np.ones(b.ops.n(1)))])
    with pytest.raises(ValueError, match="complete exact decomposition"):
        fc.propagate_G(f)


def test_kappa_kernel_leak_reports_value(qft_bundle):
    """A projector whose cutoff mode is lost leaves the distinguished mode in Q Adot.

    The form delta(t) psi on the spatial part has Cauchy data A = 0, Adot = psi."""
    import dataclasses
    import re

    b = qft_bundle
    broken = dataclasses.replace(b.Q, psi_eps=np.zeros(b.ops.n(1)))
    fc = FieldCalculus(b.ops, b.dec0, b.dec1, Q=broken)
    psi = b.Q.psi_basis[:, -1]
    qa = broken.apply(psi)
    K = b.dec1.kernel_basis()
    comp = np.linalg.norm(K.T @ (b.dec1.M @ qa))
    tol = 1e-8 * np.linalg.norm(qa)
    want = f"wrong projector policy: |K^T M Q Adot| {comp:.2e} > {tol:.2e}"
    with pytest.raises(ValueError, match=re.escape(want)):
        fc.kappa(TestForm(1, [FormTerm(Impulse(0.0, 0), "spatial", psi)]))


def test_kappa_names_the_delta0_kernel_dimension(qft_bundle):
    """A Delta_0 calculus with a kernel is an internal fault (run qft rejects such a
    mesh first); kappa's failure names the kernel dimension it found."""
    from decem.spectral import LanczosCalculus

    b = qft_bundle
    fc = FieldCalculus(b.ops, LanczosCalculus(b.L0, np.zeros((b.ops.n(0), 2))), b.dec1)
    f = TestForm(1, [FormTerm(TimeProfile.bump(-0.3, 0.7), "dt", np.ones(b.ops.n(0)))])
    with pytest.raises(AssertionError, match="zero modes: kernel dimension 2 > 0"):
        fc.kappa(f)


@pytest.fixture(scope="module")
def lanczos_fc(qft_bundle):
    """The FieldCalculus ``run qft`` builds: Lanczos calculi on the exact Delta_0 and
    Delta_1, with kernels and Q_eps's basis from partial eigs."""
    from decem.hodge import harmonic_basis
    from decem.spectral import LanczosCalculus, build_Q_eps, eig

    b = qft_bundle
    low0, low1 = eig(b.L0, count=10), eig(b.L1, count=10)
    Q = build_Q_eps(harmonic_basis(low1, b.ops), b.ops, eps=1.0,
                    center=np.array([3.0, 3.0, 3.0]), r_plateau=2.0, r_zero=2.8)
    calc0, calc1 = (LanczosCalculus(op, low.kernel_basis())
                    for op, low in ((b.L0, low0), (b.L1, low1)))
    return FieldCalculus(b.ops, calc0, calc1, Q=Q)


def _two_path_tol(dec) -> float:
    """Relative M-norm bound between the Lanczos and dense calculi, set before running:
    eigh's backward error moves each lam^2 by about eps lambda^2_max, so lam^(+-1/2) by
    a relative eps lambda^2_max / (4 lambda^2_min) and Delta^+-style factors by up to
    eps kappa; Lanczos stops at a coefficient change of LANCZOS_TOL, and convergence at a
    linear rate leaves a few times that.  Ten times the sum covers both constants."""
    from decem.spectral import LANCZOS_TOL

    kappa = dec.evals[-1] / dec.evals[dec.kernel_dim]
    return 10 * (np.finfo(float).eps * kappa + LANCZOS_TOL)


def _m_gap(ops, p, x, y) -> float:
    """|x - y|_M / |y|_M for real or complex cochains."""
    M = ops.mass(p)
    diff = x - y
    return np.sqrt(abs(np.vdot(diff, M @ diff)) / max(abs(np.vdot(y, M @ y)), 1e-300))


def _two_path_forms(b):
    """Degree-1 test forms with smooth profiles on every part and an impulse term."""
    f1, f2 = (b.fc.codifferential_form(_rand_form2(b, s)) for s in (31, 32))
    rng = np.random.default_rng(33)
    f3 = _rand_form1(b, 34)
    f3.terms.append(FormTerm(Impulse(0.2, 1), "spatial", rng.standard_normal(b.ops.n(1))))
    f3.terms.append(FormTerm(Impulse(-0.1, 0), "dt", rng.standard_normal(b.ops.n(0))))
    return f1, f2, f3


def test_lanczos_propagate_and_kappa_match_dense(qft_bundle, lanczos_fc):
    """Lanczos against the dense calculus: the Cauchy data of Gf and the Krein vector,
    relative in the M-norm, per degree."""
    b = qft_bundle
    tol = max(_two_path_tol(b.dec0), _two_path_tol(b.dec1))
    for f in _two_path_forms(b):
        got, want = lanczos_fc.propagate_G(f), b.fc.propagate_G(f)
        for name, p in (("phi", 0), ("phidot", 0), ("A", 1), ("Adot", 1)):
            gap = _m_gap(b.ops, p, getattr(got, name), getattr(want, name))
            assert gap <= tol, (name, gap, tol)
        got, want = lanczos_fc.kappa(f), b.fc.kappa(f)
        assert _m_gap(b.ops, 0, got.scalar, want.scalar) <= tol
        assert _m_gap(b.ops, 1, got.vector, want.vector) <= tol


def test_lanczos_pairings_match_dense(qft_bundle, lanczos_fc):
    """omega2_F and GZ by Lanczos against dense.  Each value is a product of two
    computed factors, so it may move by tol times the product of their norms (for GZ,
    Q_0 = psi_eps <psi_L, .>_M adds |psi_eps|_M), twice to first order."""
    b = qft_bundle
    tol = max(_two_path_tol(b.dec0), _two_path_tol(b.dec1))
    h1, h2 = _rand_form2(b, 41), _rand_form2(b, 42)
    k1, k2 = (b.fc.kappa(b.fc.codifferential_form(h)) for h in (h1, h2))
    knorm = lambda k: np.sqrt(b.ops.norm(0, k.scalar) ** 2 + b.ops.norm(1, k.vector) ** 2)
    bound = 2 * tol * 0.5 * knorm(k1) * knorm(k2)
    assert abs(lanczos_fc.omega2_F(h1, h2) - b.fc.omega2_F(h1, h2)) <= bound
    f1, f2, f3 = _two_path_forms(b)
    for g1, g2 in ((f1, f2), (f2, f3)):
        d1, d2 = b.fc.propagate_G(g1), b.fc.propagate_G(g2)
        n = lambda x: b.ops.norm(1, x)
        scale = n(d1.Adot) * n(d2.A) + n(d2.Adot) * n(d1.A)
        bound = 2 * tol * max(1.0, n(b.Q.psi_eps)) * scale
        assert abs(lanczos_fc.GZ(g1, g2) - b.fc.GZ(g1, g2)) <= bound


def test_lanczos_zero_mode_readout_matches_dense(wormhole_bundle):
    """The psi_eps readout of zero_mode_expectation by Lanczos against dense on the
    wormhole (two harmonic 1-forms): the cos-propagated smearing X moves by at most
    tol |e|_M, since |cos moment| <= int g = 1, so the readout by tol |e|_M |psi_eps|_M."""
    from decem.spectral import LanczosCalculus, assemble_laplacian, eig

    w = wormhole_bundle
    op = assemble_laplacian(w.ops, 1)
    low = eig(op, count=10)
    calc = LanczosCalculus(op, low.kernel_basis())
    fc = FieldCalculus(w.ops, None, calc, Q=w.Q)
    zero = np.zeros(w.ops.n(1))
    e = np.random.default_rng(51).standard_normal(w.ops.n(1))
    f = TestForm(2, [FormTerm(TimeProfile.bump(-0.3, 0.4), "e", e)])
    got = fc.zero_mode_expectation(zero, zero, 1.0, 1.0, f, w.q_basis, w.top_basis)
    want = w.fc.zero_mode_expectation(zero, zero, 1.0, 1.0, f, w.q_basis, w.top_basis)
    assert want.psi_eps_deviation > 1e-3  # a smearing off the kernel reads a real deviation
    bound = _two_path_tol(w.dec1) * w.ops.norm(1, e) * w.ops.norm(1, w.Q.psi_eps)
    assert abs(got.psi_eps_deviation - want.psi_eps_deviation) <= bound
    assert (got.mean, got.variance, got.support_flag) == (want.mean, want.variance,
                                                          want.support_flag)
