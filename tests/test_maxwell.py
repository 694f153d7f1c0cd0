import dataclasses
import re

import numpy as np
import pytest

from decem.forms import DecOperators
from decem.geometries import box_complex, canned_scenario
from decem.maxwell import (
    CurrentSource,
    MaxwellState,
    classical_energy,
    constraint_residuals,
    evolve,
    leapfrog_oracle,
    potential_evolve,
)
from decem.mesh import carve_obstacle
from decem.spectral import assemble_laplacian, eig
from decem.timeprofiles import TimeProfile


def _random_constrained(b, seed=0):
    rng = np.random.default_rng(seed)
    E0 = b.ops.apply_codifferential(2, rng.standard_normal(b.ops.n(2)))
    B0 = b.ops.d(1) @ rng.standard_normal(b.ops.n(1))
    return MaxwellState(0.0, E0, B0)


def test_zero_data_zero_solution(qft_bundle):
    b = qft_bundle
    s0 = MaxwellState(0.0, np.zeros(b.ops.n(1)), np.zeros(b.ops.n(2)))
    states = evolve(b.dec1, b.ops, s0, None, [0.5, 2.0])
    for s in states:
        assert np.abs(s.E).max() == 0 and np.abs(s.B).max() == 0


def test_harmonic_data_static(qft_bundle):
    b = qft_bundle
    psi = b.dec1.kernel_basis()[:, 0]
    states = evolve(
        b.dec1, b.ops, MaxwellState(0.0, psi, np.zeros(b.ops.n(2))), None,
        [0.0, 1.3, 4.0],
    )
    for s in states:
        assert b.ops.norm(1, s.E - psi) <= 1e-10
        assert b.ops.norm(2, s.B) <= 1e-10


def test_energy_conservation_and_residuals(qft_bundle):
    b = qft_bundle
    s0 = _random_constrained(b)
    lam_min = float(np.sqrt(b.dec1.evals[b.dec1.kernel_dim]))
    times = np.linspace(0.0, 10.0 / lam_min, 6)
    states = evolve(b.dec1, b.ops, s0, None, times)
    e0 = classical_energy(b.ops, s0)
    for s in states:
        assert abs(classical_energy(b.ops, s) - e0) / e0 <= 1e-8
        res = constraint_residuals(b.ops, s)
        assert max(res.values()) <= 1e-8


def test_leapfrog_oracle_agreement(qft_bundle):
    b = qft_bundle
    s0 = _random_constrained(b, seed=5)
    t1 = 0.8
    s_spec = evolve(b.dec1, b.ops, s0, None, [t1])[0]
    s_leap = leapfrog_oracle(b.ops, s0, t1, 40000)
    assert b.ops.norm(1, s_spec.E - s_leap.E) <= 1e-7 * b.ops.norm(1, s_spec.E)
    assert b.ops.norm(2, s_spec.B - s_leap.B) <= 1e-7 * b.ops.norm(2, s_spec.B)


def test_time_reversal(qft_bundle):
    b = qft_bundle
    s0 = _random_constrained(b, seed=6)
    fwd = evolve(b.dec1, b.ops, s0, None, [2.3])[0]
    back = evolve(b.dec1, b.ops, MaxwellState(0.0, fwd.E, fwd.B), None, [-2.3])[0]
    assert b.ops.norm(1, back.E - s0.E) <= 1e-9 * max(b.ops.norm(1, s0.E), 1.0)
    assert b.ops.norm(2, back.B - s0.B) <= 1e-9 * max(b.ops.norm(2, s0.B), 1.0)


def test_superposition(qft_bundle):
    b = qft_bundle
    s1 = _random_constrained(b, seed=7)
    s2 = _random_constrained(b, seed=8)
    both = MaxwellState(0.0, s1.E + 2 * s2.E, s1.B + 2 * s2.B)
    t = 1.44
    a = evolve(b.dec1, b.ops, s1, None, [t])[0]
    c = evolve(b.dec1, b.ops, s2, None, [t])[0]
    d = evolve(b.dec1, b.ops, both, None, [t])[0]
    assert b.ops.norm(1, d.E - (a.E + 2 * c.E)) <= 1e-12 * max(b.ops.norm(1, d.E), 1.0)
    assert b.ops.norm(2, d.B - (a.B + 2 * c.B)) <= 1e-12 * max(b.ops.norm(2, d.B), 1.0)


def test_initial_constraint_violation_rejected(qft_bundle):
    b = qft_bundle
    rng = np.random.default_rng(9)
    bad_B = rng.standard_normal(b.ops.n(2))  # not closed
    with pytest.raises(ValueError, match="magnetic"):
        evolve(b.dec1, b.ops, MaxwellState(0.0, np.zeros(b.ops.n(1)), bad_B), None, [1.0])
    bad_E = rng.standard_normal(b.ops.n(1))
    with pytest.raises(ValueError, match="Gauss"):
        evolve(
            b.dec1, b.ops,
            MaxwellState(0.0, bad_E, b.ops.d(1) @ rng.standard_normal(b.ops.n(1))),
            None, [1.0],
        )


def test_corrupted_state_residual_equals_noise(qft_bundle):
    b = qft_bundle
    s0 = _random_constrained(b, seed=10)
    s = evolve(b.dec1, b.ops, s0, None, [0.9])[0]
    rng = np.random.default_rng(11)
    noise = rng.standard_normal(b.ops.n(2))
    corrupted = MaxwellState(s.t, s.E, s.B + noise)
    res = constraint_residuals(b.ops, corrupted)
    expect = b.ops.norm(3, b.ops.d(2) @ noise)
    assert abs(res["dB"] - expect) <= 1e-9 * expect


def _source_edge_cochain(b, seed=12):
    rng = np.random.default_rng(seed)
    cplx = b.scenario.carved
    edges = cplx.simplices[1][b.ops.kept[1]]
    mid = 0.5 * (cplx.vertices[edges[:, 0]] + cplx.vertices[edges[:, 1]])
    mask = np.linalg.norm(mid - np.array([1.2, 1.2, 1.2]), axis=1) < 1.0
    return rng.standard_normal(b.ops.n(1)) * mask


def test_consistent_source_continuity(qft_bundle):
    b = qft_bundle
    src = CurrentSource.consistent(b.ops, TimeProfile.bump(0.1, 0.9), _source_edge_cochain(b))
    assert src.continuity_residual(b.ops, np.linspace(0, 1.5, 7)) <= 1e-10


def test_sourced_evolution_keeps_constraints(qft_bundle):
    b = qft_bundle
    src = CurrentSource.consistent(b.ops, TimeProfile.bump(0.1, 0.9), _source_edge_cochain(b))
    s0 = MaxwellState(0.0, np.zeros(b.ops.n(1)), np.zeros(b.ops.n(2)))
    for s in evolve(b.dec1, b.ops, s0, src, [0.5, 1.2, 2.0]):
        res = constraint_residuals(b.ops, s, src)
        assert max(res.values()) <= 1e-8


def test_potential_two_path_and_gauge(qft_bundle):
    b = qft_bundle
    rng = np.random.default_rng(13)
    A0 = b.ops.apply_codifferential(2, rng.standard_normal(b.ops.n(2)))
    E0 = 0.5 * b.ops.apply_codifferential(2, rng.standard_normal(b.ops.n(2)))
    B0 = b.ops.d(1) @ A0
    src = CurrentSource.consistent(b.ops, TimeProfile.bump(0.2, 1.2), _source_edge_cochain(b))
    trajs = potential_evolve(b.dec0, b.dec1, b.ops, A0, -E0, src, [0.0, 0.9, 1.9])
    for tr in trajs:
        assert tr.gauge_residual(b.ops) <= 1e-8
    s_direct = evolve(b.dec1, b.ops, MaxwellState(0.0, E0, B0), src, [1.9])[0]
    s_pot = trajs[-1].field_state(b.ops)
    assert b.ops.norm(1, s_pot.E - s_direct.E) <= 1e-8 * max(b.ops.norm(1, s_direct.E), 1.0)
    assert b.ops.norm(2, s_pot.B - s_direct.B) <= 1e-8 * max(b.ops.norm(2, s_direct.B), 1.0)


def test_zero_potential_for_zero_data(qft_bundle):
    b = qft_bundle
    trajs = potential_evolve(
        b.dec0, b.dec1, b.ops, np.zeros(b.ops.n(1)), np.zeros(b.ops.n(1)), None, [0.7]
    )
    assert np.abs(trajs[0].A).max() == 0 and np.abs(trajs[0].phi).max() == 0


def test_non_coclosed_potential_rejected(qft_bundle):
    b = qft_bundle
    rng = np.random.default_rng(14)
    A0 = b.ops.d(0) @ rng.standard_normal(b.ops.n(0))  # exact, not co-closed
    with pytest.raises(ValueError, match="co-closed"):
        potential_evolve(b.dec0, b.dec1, b.ops, A0, np.zeros(b.ops.n(1)), None, [1.0])


def test_inconsistent_source_gauge_residual_grows(qft_bundle):
    """Negative control: a current with no matching charge breaks Lorenz gauge."""
    b = qft_bundle
    a = _source_edge_cochain(b, seed=15)
    bad = CurrentSource(rho_terms=[], j_terms=[(TimeProfile.bump(0.1, 0.9), a)])
    assert bad.continuity_residual(b.ops, np.linspace(0, 1.5, 7)) > 1.0
    trajs = potential_evolve(
        b.dec0, b.dec1, b.ops, np.zeros(b.ops.n(1)), np.zeros(b.ops.n(1)), bad, [1.5]
    )
    assert trajs[0].gauge_residual(b.ops) > 1e-4


def test_energy_of_unit_harmonic_mode(qft_bundle):
    b = qft_bundle
    psi = b.dec1.kernel_basis()[:, 0]
    s = MaxwellState(0.0, psi, np.zeros(b.ops.n(2)))
    assert abs(classical_energy(b.ops, s) - 0.5) <= 1e-12


def test_zero_mode_moves_linearly(qft_bundle):
    """Kernel Cauchy data evolves like a free particle: A(t) = A0 + t Adot0."""
    b = qft_bundle
    psi = b.dec1.kernel_basis()[:, 0]
    trajs = potential_evolve(b.dec0, b.dec1, b.ops, psi, psi, None, [0.0, 1.0, 2.5])
    for tr in trajs:
        assert b.ops.norm(1, tr.A - (1.0 + tr.t) * psi) <= 1e-9


def _delta2_oracle(b, s0, src, t):
    """(B, Bdot) at t from Delta_2's own eigensystem, apart from evolve's d1 path.

    B(t) = cos(t sqrt(D2)) B0 - t sinc(t sqrt(D2)) d1 E0 + int_0^t sin((t-s) sqrt(D2))
    / sqrt(D2) d1 j(s) ds, with the source integral by composite Gauss-Legendre on
    panels of at most one radian of phase.
    """
    dec2, d1 = b.dec2, b.ops.d(1)
    dE = d1 @ s0.E
    cos_B, sin_B = dec2.functions(s0.B, [lambda lam: np.cos(t * lam),
                                         lambda lam: lam * np.sin(t * lam)])
    sinc_E, cos_E = dec2.functions(dE, [lambda lam: t * np.sinc(t * lam / np.pi),
                                        lambda lam: np.cos(t * lam)])
    B = cos_B - sinc_E
    Bdot = -sin_B - cos_E
    lam = np.sqrt(dec2.evals)
    lam[: dec2.kernel_dim] = 0.0
    xs, ws = np.polynomial.legendre.leggauss(16)
    for g, c in src.j_terms:
        lo, hi = g.support[0], min(g.support[1], t)
        if hi <= lo:
            continue
        edges = np.linspace(lo, hi, int(np.ceil((hi - lo) * lam.max())) + 2)
        h = 0.5 * np.diff(edges)
        s = (0.5 * (edges[:-1] + edges[1:])[:, None] + h[:, None] * xs).ravel()
        w = (h[:, None] * ws).ravel() * g(s)
        phase = np.multiply.outer(lam, t - s)
        sinc_part = (np.sinc(phase / np.pi) * (t - s)) @ w
        cos_part = np.cos(phase) @ w
        coef = dec2.coefficients(d1 @ c)
        B += dec2.vectors @ (sinc_part * coef)
        Bdot += dec2.vectors @ (cos_part * coef)
    return B, Bdot


@pytest.mark.parametrize("sourced", [False, True])
def test_B_through_d1_matches_delta2_oracle(qft_bundle, sourced):
    """f(D2) d1 = d1 f(D1) on the symmetric box, whose spectrum is degenerate."""
    b = qft_bundle
    s0 = _random_constrained(b, seed=16)
    src = CurrentSource()
    if sourced:
        src = CurrentSource.consistent(
            b.ops, TimeProfile.bump(0.1, 0.9), _source_edge_cochain(b)
        )
    times = [0.4, 1.3, 2.7]
    for s in evolve(b.dec1, b.ops, s0, src, times):
        B, Bdot = _delta2_oracle(b, s0, src, s.t)
        assert b.ops.norm(2, s.B - B) <= 1e-10 * b.ops.norm(2, B)
        assert b.ops.norm(2, s.Bdot - Bdot) <= 1e-10 * b.ops.norm(2, Bdot)


def test_harmonic_B_static_on_solid_torus():
    """On solid_torus H^2 = 1: harmonic B0 stays put and drives no current."""
    sc = canned_scenario("solid_torus", 1)
    ops = DecOperators(sc.carved)
    kern = eig(assemble_laplacian(ops, 2), count=4)
    assert kern.kernel_dim == 1
    h = kern.kernel_basis()[:, 0]
    dec1 = eig(assemble_laplacian(ops, 1))
    s0 = MaxwellState(0.0, np.zeros(ops.n(1)), h)
    for s in evolve(dec1, ops, s0, None, [0.0, 1.3, 4.0]):
        assert ops.norm(2, s.B - h) <= 1e-10
        assert ops.norm(1, s.Edot) <= 1e-10


def test_non_coclosed_remainder_rejected(qft_bundle):
    """A D1 eigensystem that misses a mode does not reproduce Edot0 = delta~ B0, which
    lies in that mode: f = 1 returns it short by about its whole norm."""
    b = qft_bundle
    dec = b.dec1
    kd = dec.kernel_dim
    curl = np.linalg.norm(b.ops.d(1) @ dec.vectors[:, kd : kd + 20], axis=0)
    k = kd + int(np.argmax(curl))
    V = dec.vectors.copy()
    V[:, k] = 0.0
    broken = dataclasses.replace(dec, vectors=V)
    B0 = b.ops.d(1) @ dec.vectors[:, k]
    s0 = MaxwellState(0.0, np.zeros(b.ops.n(1)), B0)
    Edot0 = b.ops.apply_codifferential(2, B0)
    tol = f"{1e-8 * max(b.ops.norm(1, Edot0), 1.0):.2e}"
    with pytest.raises(ValueError, match=rf"reproduce its start vector: .* (\S+) > {tol}$") as exc:
        evolve(broken, b.ops, s0, None, [1.0])
    value = float(re.search(r"(\S+) > \S+$", str(exc.value))[1])
    assert value > float(tol)
    evolve(dec, b.ops, s0, None, [1.0])


@pytest.mark.slow
def test_finite_propagation_surrogate():
    """Smooth localized B-data stays below 1e-6 outside the light cone.

    With E0 = 0 and no source the engine's magnetic field is exactly
    cos(t sqrt(Delta_2)) B0, which evolve evaluates as d1 cos(t sqrt(Delta_1))
    on a mesh fine enough to resolve the datum.
    """
    box = box_complex((4, 4, 4), res=2)
    sc = carve_obstacle(box, set())
    ops = DecOperators(sc.carved)
    dec1 = eig(assemble_laplacian(ops, 1))
    cplx = sc.carved
    edges = cplx.simplices[1][ops.kept[1]]
    p0, p1 = cplx.vertices[edges[:, 0]], cplx.vertices[edges[:, 1]]
    c0 = np.array([0.8, 0.8, 0.8])

    def bumpf(x, width=0.75):
        r2 = np.sum((x - c0) ** 2, axis=-1) / width**2
        return np.where(r2 < 1, np.exp(1 - 1 / (1 - np.minimum(r2, 0.999999))), 0.0)

    A0 = 0.5 * (bumpf(p0) + bumpf(p1)) * ((p1 - p0) @ np.array([0.3, -0.2, 0.9]))
    B0 = ops.d(1) @ A0
    fmid = cplx.vertices[cplx.simplices[2][ops.kept[2]]].mean(axis=1)
    t = 0.35
    Bt = evolve(dec1, ops, MaxwellState(0.0, np.zeros(ops.n(1)), B0), None, [t])[0].B
    dist = np.linalg.norm(fmid - c0, axis=1)
    leaks = []
    for probe in (3.8, 4.3, 4.8):
        sel = dist > probe
        leaks.append(np.abs(Bt[sel]).max() / np.abs(B0).max())
    assert leaks[0] > leaks[1] > leaks[2]
    assert leaks[2] <= 1e-6


def _assert_states_agree(ops, got, want, rel=1e-12):
    for s, r in zip(got, want, strict=True):
        assert s.t == r.t
        for name, p in (("E", 1), ("Edot", 1), ("B", 2), ("Bdot", 2)):
            a, b = getattr(s, name), getattr(r, name)
            assert ops.norm(p, a - b) <= rel * ops.norm(p, b), (name, s.t)


def test_B_two_path_matches_stored_G_reference(qft_bundle):
    """B's exact part as d1 (V1 c) against the stored G = d1 V1 propagator, with a source."""
    from maxwell_reference import evolve as reference_evolve

    b = qft_bundle
    s0 = _random_constrained(b, seed=17)
    src = CurrentSource.consistent(b.ops, TimeProfile.bump(0.1, 0.9), _source_edge_cochain(b))
    times = [0.0, 0.2, 0.55, 0.9, 1.4, 2.6, 5.1]
    got = evolve(b.dec1, b.ops, s0, src, times)
    _assert_states_agree(b.ops, got, reference_evolve(b.dec1, b.ops, s0, src, times))


def test_B_two_path_with_harmonic_part_on_solid_torus():
    """B0 = d1 a + 10 h on solid_torus (H^2 = 1): both paths keep 10 h static."""
    from maxwell_reference import evolve as reference_evolve

    ops = DecOperators(canned_scenario("solid_torus", 1).carved)
    h = eig(assemble_laplacian(ops, 2), count=4).kernel_basis()[:, 0]
    dec1 = eig(assemble_laplacian(ops, 1))
    rng = np.random.default_rng(18)
    E0 = ops.apply_codifferential(2, rng.standard_normal(ops.n(2)))
    s0 = MaxwellState(0.0, E0, ops.d(1) @ rng.standard_normal(ops.n(1)) + 10.0 * h)
    times = np.linspace(0.0, 4.0, 7)
    got = evolve(dec1, ops, s0, None, times)
    _assert_states_agree(ops, got, reference_evolve(dec1, ops, s0, None, times))


@pytest.mark.parametrize("sourced", [False, True])
def test_lanczos_evolution_matches_dense(qft_bundle, sourced):
    """The Lanczos calculus against the dense eigensystem, to t = 10 / lambda_min.

    Bound from the dense path's own error: eigh is backward stable, so each lambda^2
    is off by about eps lambda^2_max, a frequency lam by eps lambda^2_max / (2 lam) <=
    eps lambda^2_max / (2 lambda_min), and every mode's phase at time t by t times that.
    Ten times this, for the eigensolver's backward-error constant, plus the Lanczos
    stopping tolerance bounds the gap.  E0 has a harmonic part, which the Lanczos
    calculus deflates and carries as f(0) P_H E0.
    """
    from decem.spectral import LANCZOS_TOL, LanczosCalculus

    b, dec = qft_bundle, qft_bundle.dec1
    s0 = _random_constrained(b, seed=21)
    s0.E = s0.E + 0.5 * dec.kernel_basis()[:, 0]
    src = CurrentSource()
    if sourced:
        src = CurrentSource.consistent(
            b.ops, TimeProfile.bump(0.1, 0.9), _source_edge_cochain(b)
        )
    lam_min = float(np.sqrt(dec.evals[dec.kernel_dim]))
    times = np.linspace(0.0, 10.0 / lam_min, 6)
    calc = LanczosCalculus(b.L1, dec.kernel_basis())
    eps = np.finfo(float).eps
    for s, r in zip(evolve(calc, b.ops, s0, src, times), evolve(dec, b.ops, s0, src, times),
                    strict=True):
        tol = 10 * s.t * eps * dec.evals[-1] / (2 * lam_min) + LANCZOS_TOL
        for name, p in (("E", 1), ("Edot", 1), ("B", 2), ("Bdot", 2)):
            gap = b.ops.norm(p, getattr(s, name) - getattr(r, name))
            assert gap <= tol * b.ops.norm(p, getattr(r, name)), (name, s.t, gap)


@pytest.fixture(scope="module")
def partial_dec1(qft_bundle):
    return eig(assemble_laplacian(qft_bundle.ops, 1), count=6)


def test_evolution_rejects_partial_decomposition(qft_bundle, partial_dec1):
    b = qft_bundle
    zero1, zero2 = np.zeros(b.ops.n(1)), np.zeros(b.ops.n(2))
    with pytest.raises(ValueError, match="complete exact decomposition"):
        evolve(partial_dec1, b.ops, MaxwellState(0.0, zero1, zero2), None, [1.0])
    with pytest.raises(ValueError, match="complete exact decomposition"):
        potential_evolve(b.dec0, partial_dec1, b.ops, zero1, zero1, None, [1.0])


def test_constraint_failures_report_value_and_tolerance(qft_bundle):
    b = qft_bundle
    ops = b.ops
    rng = np.random.default_rng(19)
    bad_B = rng.standard_normal(ops.n(2))
    val, tol = ops.norm(3, ops.d(2) @ bad_B), 1e-8 * max(ops.norm(2, bad_B), 1.0)
    with pytest.raises(ValueError, match=re.escape(f"violated: |d B0| {val:.2e} > {tol:.2e}")):
        evolve(b.dec1, ops, MaxwellState(0.0, np.zeros(ops.n(1)), bad_B), None, [1.0])
    bad_E = rng.standard_normal(ops.n(1))
    val = ops.norm(0, ops.apply_codifferential(1, bad_E))
    tol = 1e-8 * max(ops.norm(1, bad_E), 1.0)
    with pytest.raises(
        ValueError, match=re.escape(f"initial Gauss constraint violated: |delta~ E0 + rho0| "
                                    f"{val:.2e} > {tol:.2e}")
    ):
        evolve(b.dec1, ops, MaxwellState(0.0, bad_E, np.zeros(ops.n(2))), None, [1.0])
    A0 = ops.d(0) @ rng.standard_normal(ops.n(0))
    val = ops.norm(0, ops.apply_codifferential(1, A0))
    tol = 1e-8 * max(ops.norm(1, A0), 1.0)
    with pytest.raises(
        ValueError, match=re.escape(f"must be co-closed: |delta~ A0| {val:.2e} > {tol:.2e}")
    ):
        potential_evolve(b.dec0, b.dec1, ops, A0, np.zeros(ops.n(1)), None, [1.0])
