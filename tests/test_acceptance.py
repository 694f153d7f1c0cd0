"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines.
"""

import time

import numpy as np
import pytest

from decem.forms import DecOperators
from decem.geometries import ball_shell_complex, canned_scenario
from decem.mesh import carve_obstacle
from decem.spectral import assemble_laplacian, eig
from decem.topology import expected_dims, relative_cohomology_dims

GEOMETRIES = [
    "balls:1",
    "balls:2",
    "balls:3",
    "solid_torus",
    "hopf_link",
    "wormhole_obstacle",
]


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def canned_ops():
    out = {}
    for name in GEOMETRIES:
        sc = canned_scenario(name)
        out[name] = DecOperators(sc.carved)
    return out


def test_criterion_1_cohomology_ground_truth(canned_ops):
    ok = True
    details = []
    for name in GEOMETRIES:
        t0 = time.time()
        rep = relative_cohomology_dims(canned_ops[name])
        elapsed = time.time() - t0
        want = expected_dims(name)
        good = all(rep.dims[p] == v for p, v in want.items()) and elapsed <= 300
        ok &= good
        details.append(f"{name}:H1={rep.dims[1]},H2={rep.dims[2]} ({elapsed:.1f}s)")
    _report("1 (cohomology ground truth)", ok, "; ".join(details))


def test_criterion_2_discrete_hodge_theorem(canned_ops):
    ok = True
    details = []
    for name in GEOMETRIES:
        ops = canned_ops[name]
        rep = relative_cohomology_dims(ops)
        for p in (1, 2):
            dec = eig(assemble_laplacian(ops, p), count=min(10, ops.n(p) - 2))
            good = dec.kernel_dim == rep.dims[p] and dec.gap_ratio >= 1e3
            ok &= good
            details.append(f"{name} p={p}: ker={dec.kernel_dim} gap={dec.gap_ratio:.0e}")
    _report("2 (discrete Hodge theorem)", ok, "; ".join(details[:6]) + " ...")


def test_criterion_3_capacity():
    from decem.hodge import capacity_and_psiL

    exact = 16 * np.pi / 3
    rels = []
    for n_core, n_layers in ((2, 4), (4, 8)):
        shell = ball_shell_complex(1.0, 4.0, n_core=n_core, n_layers=n_layers)
        ops = DecOperators(carve_obstacle(shell, {"core"}).carved)
        cap, _u, _psi = capacity_and_psiL(ops)
        rels.append(abs(cap - exact) / exact)
    ok = rels[0] <= 0.05 and rels[1] <= 0.02
    _report("3 (capacity 16*pi/3)", ok, f"default {rels[0]:.3%}, refined {rels[1]:.3%}")


def test_criterion_4_structural_exactness(qft_bundle):
    from decem.hodge import HelmholtzSolver
    from decem.spectral import _shift_inverse

    b = qft_bundle
    d2 = abs((b.ops.d(1) @ b.ops.d(0))).max()
    exact_d2 = d2 == 0
    adj = 0.0
    for p in (1, 2, 3):
        lhs = b.ops.mass(p - 1).toarray() @ b.ops.apply_codifferential(p, np.eye(b.ops.n(p)))
        rhs = (b.ops.d(p - 1).T @ b.ops.mass(p)).toarray()
        adj = max(adj, np.abs(lhs - rhs).max() / np.abs(rhs).max())
    solver = HelmholtzSolver(b.L1, b.hb, _shift_inverse(b.L1, -1e-6 * b.dec1.max_eval))
    rng = np.random.default_rng(0)
    M = b.ops.mass(1)
    worst = 0.0
    for _ in range(100):
        phi = rng.standard_normal(b.ops.n(1))
        hs = solver.split(phi)
        scale = float(phi @ (M @ phi))
        worst = max(
            worst,
            abs(hs.harmonic @ (M @ hs.exact)) / scale,
            abs(hs.harmonic @ (M @ hs.coexact)) / scale,
            abs(hs.exact @ (M @ hs.coexact)) / scale,
            hs.recomposition_error(b.ops, 1),
        )
    ok = exact_d2 and adj <= 1e-12 and worst <= 1e-10
    _report(
        "4 (structural exactness)",
        ok,
        f"d2=0 exact: {exact_d2}, adjointness {adj:.2e} <= 1e-12, "
        f"helmholtz orthogonality {worst:.2e} <= 1e-10 (100 inputs)",
    )


def test_criterion_5_evolution(qft_bundle):
    from decem.maxwell import (
        CurrentSource,
        MaxwellState,
        classical_energy,
        constraint_residuals,
        evolve,
        potential_evolve,
    )
    from decem.timeprofiles import TimeProfile

    b = qft_bundle
    rng = np.random.default_rng(1)
    E0 = b.ops.apply_codifferential(2, rng.standard_normal(b.ops.n(2)))
    B0 = b.ops.d(1) @ rng.standard_normal(b.ops.n(1))
    lam_min = float(np.sqrt(b.dec1.evals[b.dec1.kernel_dim]))
    times = np.linspace(0.0, 10.0 / lam_min, 6)
    states = evolve(b.dec1, b.ops, MaxwellState(0.0, E0, B0), None, times)
    e0 = classical_energy(b.ops, MaxwellState(0.0, E0, B0))
    drift = max(abs(classical_energy(b.ops, s) - e0) / e0 for s in states)
    resid = max(max(constraint_residuals(b.ops, s).values()) for s in states)
    psi = b.dec1.kernel_basis()[:, 0]
    hs = evolve(b.dec1, b.ops, MaxwellState(0.0, psi, np.zeros(b.ops.n(2))),
                None, [1.7, 5.0])
    static = max(b.ops.norm(1, s.E - psi) for s in hs)
    cplx = b.scenario.carved
    edges = cplx.simplices[1][b.ops.kept[1]]
    mid = 0.5 * (cplx.vertices[edges[:, 0]] + cplx.vertices[edges[:, 1]])
    a = rng.standard_normal(b.ops.n(1)) * (
        np.linalg.norm(mid - np.array([1.2, 1.2, 1.2]), axis=1) < 1.0
    )
    src = CurrentSource.consistent(b.ops, TimeProfile.bump(0.1, 0.9), a)
    A0 = b.ops.apply_codifferential(2, rng.standard_normal(b.ops.n(2)))
    trajs = potential_evolve(b.dec0, b.dec1, b.ops, A0, -E0, src, [0.7, 1.9])
    gauge = max(tr.gauge_residual(b.ops) for tr in trajs)
    ok = drift <= 1e-8 and resid <= 1e-8 and static <= 1e-10 and gauge <= 1e-8
    _report(
        "5 (evolution)",
        ok,
        f"energy drift {drift:.2e} <= 1e-8, residuals {resid:.2e} <= 1e-8, "
        f"harmonic static {static:.2e} <= 1e-10, gauge {gauge:.2e} <= 1e-8",
    )


def test_criterion_6_quantum_pairings(qft_bundle):
    from decem.qft import FormTerm, TestForm
    from decem.timeprofiles import TimeProfile

    b = qft_bundle
    rng = np.random.default_rng(2)

    def rand2(seed):
        r = np.random.default_rng(seed)
        g1 = TimeProfile.bump(-0.7 + 0.2 * r.random(), 0.5 + 0.4 * r.random())
        g2 = TimeProfile.bump(-0.4, 0.8)
        return TestForm(2, [
            FormTerm(g1, "e", r.standard_normal(b.ops.n(1))),
            FormTerm(g2, "b", r.standard_normal(b.ops.n(2))),
        ])

    f1, f2 = rand2(100), rand2(101)
    w12, w21 = b.fc.omega2_F(f1, f2), b.fc.omega2_F(f2, f1)
    G = b.fc.pairing_G(b.fc.codifferential_form(f1), b.fc.codifferential_form(f2))
    anti = abs((w12 - w21) + 1j * G) / max(abs(w12), 1.0)
    min_diag = np.inf
    for seed in range(50):
        f = rand2(200 + seed)
        min_diag = min(min_diag, b.fc.omega2_F(f, f).real)
    u_c = rng.standard_normal(b.ops.n(0))
    g = TimeProfile.bump(-0.4, 0.5)
    h = TestForm(1, [FormTerm(g, "dt", u_c),
                     FormTerm(TimeProfile.bump(-0.3, 0.6), "spatial",
                              rng.standard_normal(b.ops.n(1)))])
    re_dh = abs(b.fc.omega2_F(b.fc.d_form(h), f1).real) / max(abs(w12), 1.0)
    w2 = b.fc.omega2_F(f1, f1)
    wick_err = abs(b.fc.wick_npoint([f1, f1, f1, f1]) - 3 * w2**2) / max(abs(3 * w2**2), 1.0)
    spread = 0.0
    for dt in (0.31, -0.62):
        spread = max(spread, abs(b.fc.omega2_F(f1.shifted(dt), f2.shifted(dt)) - w12))
    spread /= max(abs(w12), 1.0)
    ok = (
        anti <= 1e-8
        and min_diag >= -1e-10
        and re_dh <= 1e-8
        and wick_err <= 1e-10
        and spread <= 1e-8
    )
    _report(
        "6 (quantum pairings)",
        ok,
        f"antisym-vs-G {anti:.2e} <= 1e-8, min diag {min_diag:.2e} >= -1e-10, "
        f"Re(dh,f) {re_dh:.2e} <= 1e-8, wick {wick_err:.2e} <= 1e-10, "
        f"time-shift spread {spread:.2e} <= 1e-8",
    )


def test_criterion_7_q_eps_suite(shell_bundle, qft_bundle):
    from decem.qft import FieldCalculus, FormTerm, TestForm
    from decem.spectral import build_Q_eps
    from decem.timeprofiles import TimeProfile

    s = shell_bundle
    idem, ranks, pair_err = 0.0, [], 0.0
    nd = []
    for eps in (0.8, 0.4, 0.2):
        q = build_Q_eps(s.hb, s.ops, eps=eps, center=np.zeros(3),
                        r_plateau=0.6, r_zero=0.75)
        Qm = q.matrix()
        idem = max(idem, np.linalg.norm(Qm @ Qm - Qm))
        # rank of Q0 = Q_l (R_l R_r^T) Q_r^T from the thin-QR core of its factors
        left, right = q.q0_factors()
        Rl, Rr = np.linalg.qr(left, mode="r"), np.linalg.qr(right.T, mode="r")
        ranks.append(np.linalg.matrix_rank(Rl @ Rr.T, tol=1e-8))
        target = np.zeros(q.L)
        target[-1] = 1.0
        pair_err = max(pair_err, float(np.linalg.norm(q.pairings() - target)))
        nd.append(s.ops.norm(0, s.ops.apply_codifferential(1, q.psi_eps)))
    decreasing = nd[0] > nd[1] > nd[2]

    # eps-independence of the Krein pairing on co-closed pairs (box scenario)
    b = qft_bundle
    r = np.random.default_rng(3)
    f1 = b.fc.codifferential_form(TestForm(2, [
        FormTerm(TimeProfile.bump(-0.5, 0.5), "e", r.standard_normal(b.ops.n(1))),
        FormTerm(TimeProfile.bump(-0.4, 0.7), "b", r.standard_normal(b.ops.n(2))),
    ]))
    f2 = b.fc.codifferential_form(TestForm(2, [
        FormTerm(TimeProfile.bump(-0.3, 0.6), "e", r.standard_normal(b.ops.n(1))),
        FormTerm(TimeProfile.bump(-0.6, 0.4), "b", r.standard_normal(b.ops.n(2))),
    ]))
    vals = []
    for eps, (rp, rz) in ((1.0, (2.0, 2.8)), (0.9, (1.9, 2.6)), (1.1, (2.1, 2.9))):
        Q = build_Q_eps(b.hb, b.ops, eps=eps,
                        center=np.array([3.0, 3.0, 3.0]), r_plateau=rp, r_zero=rz)
        fc = FieldCalculus(b.ops, b.dec0, b.dec1, Q=Q)
        vals.append(fc.krein_product(fc.kappa(f1), fc.kappa(f2)))
    spread = max(abs(v - vals[0]) for v in vals) / max(abs(vals[0]), 1.0)

    ok = (
        idem <= 1e-10
        and all(rk == s.dec.kernel_dim for rk in ranks)
        and pair_err <= 0.02
        and decreasing
        and spread <= 1e-6
    )
    _report(
        "7 (Q_eps suite)",
        ok,
        f"idempotency {idem:.2e} <= 1e-10, rank L exact: {ranks}, "
        f"pairing err {pair_err:.2e} <= 2%, ||d~psi_eps|| decreasing: {nd}, "
        f"co-closed eps-independence {spread:.2e} <= 1e-6",
    )


def test_criterion_8_stress_energy(stress_bundle):
    from decem.geometries import empty_box_scenario
    from decem.stress import (
        ScenarioStress,
        divergence_residual,
        local_energy_density,
        loglog_slope,
        maxwell_tensor,
        quadrature_agreement,
        resolvent_difference_decay,
        t0k_check,
    )

    ste = ScenarioStress.build(empty_box_scenario((4, 4, 4)))
    repe = local_energy_density(ste)
    nullity = float(np.abs(repe.t00).max())

    st, _X1, _X2, rep = stress_bundle
    trace_err = rep.trace_identity_error()
    quad = quadrature_agreement(st, "D1")
    t0k = t0k_check(st)

    metrics = []
    for res in (1, 2):
        stc = ScenarioStress.build(canned_scenario("cube_obstacle", res))
        repc = local_energy_density(stc)
        Hc = maxwell_tensor(stc, report=repc)
        metrics.append(divergence_residual(stc, Hc, repc, obstacle_margin=1.0)["l2"])
    ratio = metrics[1] / metrics[0]

    lam_max = 3 * np.sqrt(st.sigma.dec.evals[-1])
    slope = loglog_slope(resolvent_difference_decay(st, np.geomspace(1.0, lam_max, 10)))

    ok = (
        nullity <= 1e-10
        and trace_err <= 1e-10
        and quad <= 1e-8
        and t0k <= 1e-8
        and 0.25 <= ratio <= 0.75
        and slope <= -3.0
    )
    _report(
        "8 (stress-energy)",
        ok,
        f"empty nullity {nullity:.1e} <= 1e-10, trace {trace_err:.1e} <= 1e-10, "
        f"two-path {quad:.1e} <= 1e-8, T0k {t0k:.1e} <= 1e-8, "
        f"divergence ratio {ratio:.2f} in [0.25,0.75], decay slope {slope:.2f} <= -3",
    )


def test_criterion_9_determinism(tmp_path):
    from decem.cli import run_config

    outs = []
    for sub in ("a", "b"):
        cfg = {
            "version": 1,
            "seed": 11,
            "geometry": {"canned": "balls:2"},
            "pipeline": "topology",
            "output_dir": str(tmp_path / sub),
        }
        code, _summary = run_config(cfg)
        assert code == 0
        outs.append((tmp_path / sub / "summary.json").read_bytes())
    ok = outs[0] == outs[1]
    _report("9 (determinism)", ok, f"summary files byte-identical: {ok}")
