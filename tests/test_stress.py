import numpy as np
import pytest

from decem.geometries import canned_scenario, empty_box_scenario, stress_box_scenario
from decem.stress import (
    ScenarioStress,
    cell_traces,
    divergence_residual,
    interior_window,
    kernel_blocks,
    local_energy_density,
    loglog_slope,
    maxwell_tensor,
    quadrature_agreement,
    resolvent_difference_decay,
    t0k_check,
    window_blocks,
)
from stress_reference import dense_decay_table, dense_difference_kernel, on_cells


@pytest.fixture(scope="module")
def tiny_stress():
    """Small scenario where full-matrix two-path comparisons are cheap."""
    st = ScenarioStress.build(canned_scenario("cube_obstacle", 1))
    return st


def test_empty_obstacle_all_zero():
    st = ScenarioStress.build(empty_box_scenario((4, 4, 4)))
    X1, X2 = kernel_blocks(st)
    assert np.abs(X1).max() == 0 and np.abs(X2).max() == 0
    rep = local_energy_density(st)
    assert np.abs(rep.t00).max() <= 1e-10
    H = maxwell_tensor(st, rep)
    assert np.abs(H).max() <= 1e-10
    assert t0k_check(st) <= 1e-12


def test_d1_m_selfadjoint(stress_bundle):
    st, X1, _X2, _rep = stress_bundle
    M1 = st.sigma.ops.mass(1).toarray()
    A = M1 @ X1 @ M1
    assert np.linalg.norm(A - A.T) <= 1e-9 * np.linalg.norm(A)


def test_global_trace_identity(stress_bundle):
    _st, _X1, _X2, rep = stress_bundle
    assert rep.trace_identity_error() <= 1e-10


def test_cell_trace_sum_is_matrix_trace(stress_bundle):
    st, X1, _X2, rep = stress_bundle
    M1 = st.sigma.ops.mass(1).toarray()
    tr = np.trace(X1 @ M1)
    assert abs(rep.t1_cells.sum() - tr) <= 1e-10 * max(abs(tr), 1.0)


def test_two_path_full_matrix(tiny_stress):
    st = tiny_stress
    M1 = st.sigma.ops.mass(1).toarray()
    M2 = st.sigma.ops.mass(2).toarray()
    X1e = dense_difference_kernel(st, "D1", via="eig")
    X1q = dense_difference_kernel(st, "D1", via="quadrature")
    assert np.linalg.norm((X1q - X1e) @ M1) <= 1e-8 * np.linalg.norm(X1e @ M1)
    X2e = dense_difference_kernel(st, "D2", via="eig")
    X2q = dense_difference_kernel(st, "D2", via="quadrature")
    assert np.linalg.norm((X2q - X2e) @ M2) <= 1e-8 * np.linalg.norm(X2e @ M2)


def test_two_path_probes(stress_bundle):
    st, _X1, _X2, _rep = stress_bundle
    assert quadrature_agreement(st, "D1") <= 1e-8


def test_two_path_probes_d2(stress_bundle):
    """The D2 eig side applied from its factors d1 V lambda^-1/4 against the quadrature."""
    st, _X1, _X2, _rep = stress_bundle
    assert quadrature_agreement(st, "D2") <= 1e-8


def test_t0k_cancellation_and_control(stress_bundle):
    st, _X1, _X2, _rep = stress_bundle
    assert t0k_check(st) <= 1e-8
    assert t0k_check(st, unsymmetrize=0.05) > 1e-3


def test_maxwell_tensor_trace_and_symmetry(stress_bundle):
    st, _X1, _X2, rep = stress_bundle
    H = maxwell_tensor(st, rep)
    scale = np.abs(rep.t00).max()
    assert np.abs(np.einsum("cjj->c", H) - rep.t00).max() <= 1e-9 * scale
    assert np.abs(H - np.transpose(H, (0, 2, 1))).max() <= 1e-9 * scale


def test_t00_monotone_decay(stress_bundle):
    st, _X1, _X2, rep = stress_bundle
    cplx = st.sigma.ops.complex
    dist = np.abs(cplx.cell_vertex_coords().mean(axis=1) - 3.5).max(axis=1)
    means = []
    for k in range(4):
        sel = (dist >= k) & (dist < k + 1)
        means.append(np.abs(rep.t00[sel]).mean())
    # monotone beyond the near shell, and strongly decaying overall
    assert means[1] > means[2] > means[3]
    assert means[3] < 1e-3 * means[1]


def test_t00_time_independent_by_construction(stress_bundle):
    """The report exposes no time parameter at all."""
    _st, _X1, _X2, rep = stress_bundle
    assert not hasattr(rep, "t")


def test_divergence_refinement_halving():
    metrics = []
    for res in (1, 2):
        st = ScenarioStress.build(canned_scenario("cube_obstacle", res))
        rep = local_energy_density(st)
        H = maxwell_tensor(st, report=rep)
        div = divergence_residual(st, H, rep, obstacle_margin=1.0)
        assert div["n_vertices"] > 0
        metrics.append(div["l2"])
    ratio = metrics[1] / metrics[0]
    assert 0.25 <= ratio <= 0.75


def test_divergence_vacuum_exclusions(tiny_stress):
    st = tiny_stress
    rep = local_energy_density(st)
    H = maxwell_tensor(st, report=rep)
    div = divergence_residual(st, H, rep)
    # obstacle-adjacent vertices are never sampled
    cplx = st.sigma.ops.complex
    nodes = cplx.simplices[0][:, 0]
    pos = cplx.vertices[nodes][div["vertices"]]
    inside = np.all((pos > 0.99) & (pos < 2.01), axis=1)
    assert not inside.any()


def test_resolvent_decay_slope(stress_bundle):
    st, _X1, _X2, _rep = stress_bundle
    lam_max = 3 * np.sqrt(st.sigma.dec.evals[-1])
    table = resolvent_difference_decay(st, np.geomspace(1.0, lam_max, 10))
    assert loglog_slope(table) <= -3.0
    # lambda^2-weighted summability surrogate
    vals = np.array([v for _l, v in table])
    lams = np.array([l for l, _v in table])
    assert np.sum(lams**2 * vals) < np.inf
    assert (lams[-1] ** 2 * vals[-1]) < (lams[-3] ** 2 * vals[-3])


def test_resolvent_decay_empty_is_zero():
    st = ScenarioStress.build(empty_box_scenario((4, 4, 4)))
    table = resolvent_difference_decay(st, np.array([1.0, 2.0]))
    assert max(v for _l, v in table) <= 1e-12


def test_interior_window_avoids_boundaries(stress_bundle):
    st, _X1, _X2, _rep = stress_bundle
    win = interior_window(st)
    cplx = st.sigma.ops.complex
    edges = cplx.simplices[1][st.sigma.ops.kept[1]][win]
    mids = cplx.vertices[edges].mean(axis=1)
    assert mids.min() > 0.9 and mids.max() < 6.1


def test_report_json(stress_bundle):
    _st, _X1, _X2, rep = stress_bundle
    import json

    obj = json.loads(rep.to_json())
    assert obj["trace_identity_error"] <= 1e-10
    assert obj["n_cells"] == len(rep.t00)


def test_celldata_export(stress_bundle):
    from decem.io import vtk_celldata

    st, _X1, _X2, rep = stress_bundle
    text = vtk_celldata(st.sigma.ops.complex, {"t00": rep.t00})
    assert text.startswith("# vtk DataFile")
    assert "SCALARS t00 double 1" in text


# -- oracles for the kernel-form engine --------------------------------------------------


def test_hodge_system_is_complete_laplacian_eigensystem(tiny_stress):
    """[K U, V_c] against the assembled Hodge Laplacian with its exact down-term."""
    from laplacian_reference import assemble_laplacian

    for side in (tiny_stress.sigma, tiny_stress.reference):
        V, evals = side.hodge_system()
        L1 = assemble_laplacian(side.ops, 1)
        assert V.shape == (L1.n, L1.n) and evals.shape == (L1.n,)
        assert np.abs(V.T @ (L1.M @ V) - np.eye(L1.n)).max() <= 1e-10
        R = L1.S @ V - (L1.M @ V) * evals[None, :]
        assert np.linalg.norm(R, axis=0).max() <= 1e-8 * evals.max()


def test_decay_matches_dense_resolvent_solves(tiny_stress):
    """The eigensystem decay table against (S + lam^2 M)^-1 M by dense solves."""
    import scipy.linalg as sla

    from laplacian_reference import assemble_laplacian

    def window_resolvent(side, w, lam):
        S = assemble_laplacian(side.ops, 1).S
        M = side.ops.mass(1).toarray()
        return sla.solve(S + lam**2 * M, M[:, w], assume_a="pos")[w, :]

    st = tiny_stress
    lam_grid = np.geomspace(1.0, 3 * np.sqrt(st.sigma.dec.evals[-1]), 10)
    window = interior_window(st)
    for lam, val in resolvent_difference_decay(st, lam_grid, window):
        Ds = window_resolvent(st.sigma, window, lam)
        Dr = window_resolvent(st.reference, st.kept_maps[1][window], lam)
        want = np.linalg.norm(Ds - Dr, 2)
        assert abs(val - want) <= 1e-10 * want


@pytest.fixture(scope="module")
def balls_stress():
    return ScenarioStress.build(canned_scenario("balls:1", 1))


@pytest.mark.parametrize("bundle", ["tiny_stress", "balls_stress", "hopf_link",
                                    "wormhole_obstacle", "slab_stress"])
def test_decay_lanczos_matches_dense_difference(request, bundle):
    """The Lanczos table, block by block, against the formed w x w difference D and a
    dense eigh of D D^T, on the same eigensystems, per lam: where the two sides' groups
    differ (cube_obstacle: 2 and 4 elements; hopf_link), where there is no symmetry
    (the glued wormhole: one block) and where a material slab breaks one."""
    if bundle.endswith("_stress"):
        st = request.getfixturevalue(bundle)
    else:
        st = ScenarioStress.build(canned_scenario(bundle, 1))
    lam_grid = np.geomspace(1.0, 3 * np.sqrt(st.sigma.dec.evals[-1]), 10)
    window = interior_window(st)
    blocks = {"tiny_stress": 2, "balls_stress": 4, "slab_stress": 2, "hopf_link": 2}
    assert len(window_blocks(st, window)) == blocks.get(bundle, 1)
    got = resolvent_difference_decay(st, lam_grid, window)
    want = dense_decay_table(st, lam_grid, window)
    for (lg, vg), (lw, vw) in zip(got, want):
        assert lg == lw and abs(vg - vw) <= 1e-12 * vw


def test_decay_lanczos_reports_non_convergence(monkeypatch, tiny_stress):
    """A cap below the window size that the Lanczos reaches unconverged raises with the
    measured change, the tolerance and the step count."""
    import re

    import decem.spectral as spectral

    monkeypatch.setattr(spectral, "LANCZOS_MAX_STEPS", 7)
    st = tiny_stress
    assert min(B.shape[1] for B, _ in window_blocks(st, interior_window(st))) > 7
    with pytest.raises(AssertionError) as err:
        resolvent_difference_decay(st, np.array([1.0, 5.0]))
    m = re.search(
        r"did not converge: top Ritz value change (\S+) > (\S+) after 7 steps", str(err.value)
    )
    assert m, str(err.value)
    assert float(m[1]) > float(m[2]) == pytest.approx(spectral.LANCZOS_TOL)


def test_decay_steps_on_the_shared_lanczos_engine(monkeypatch, balls_stress):
    """The decay table takes every step through ``spectral.Lanczos.step`` (counted), one
    engine per symmetry block and one basis per block and grid point, each at most as
    long as its block; each converged basis passes the calculus's sampled orthonormality
    check."""
    import decem.spectral as spectral

    stepped, real = [], spectral.Lanczos.step

    def step(self, krys):
        stepped.append((self, list(krys)))
        return real(self, krys)

    monkeypatch.setattr(spectral.Lanczos, "step", step)
    st = balls_stress
    grid = np.geomspace(1.0, 3 * np.sqrt(st.sigma.dec.evals[-1]), 10)
    sizes = [B.shape[1] for B, _ in window_blocks(st, interior_window(st)) if B.shape[1]]
    table = resolvent_difference_decay(st, grid)
    bases = {id(kry): (engine, kry) for engine, krys in stepped for kry in krys}
    engines = {engine for engine, _ in stepped}
    assert len(table) == len(grid) and len(engines) == len(sizes) == 4
    assert len(bases) == len(sizes) * len(grid)
    assert sorted(engine.M.shape[0] for engine in engines) == sorted(sizes)
    for engine in engines:
        assert engine.steps == sum(len(krys) for e, krys in stepped if e is engine)
    for engine, kry in bases.values():
        assert 0 < kry.m <= min(spectral.LANCZOS_MAX_STEPS, engine.M.shape[0])
        assert kry.m == sum(kry in krys for _e, krys in stepped)
        engine._check_basis(kry.Q[spectral._sample(kry.m)].T)


@pytest.fixture(scope="module")
def slab_stress():
    """A centred carved block in a 6 x 6 x 6 box beside a slab of eps = 2 (4 < x < 6):
    the slab halves the symmetry group of both sides, 4 elements to 2."""
    from decem.forms import DecOperators, MaterialField
    from decem.geometries import box_complex
    from decem.mesh import carve_obstacle

    def tag(c):
        if all(2 < x < 4 for x in c):
            return "block"
        return "slab" if 4 < c[0] < 6 else ""

    sc = carve_obstacle(box_complex((6, 6, 6), tag_fn=tag), {"block"})
    slab = MaterialField(eps={"slab": 2.0})
    for cplx in (sc.carved, sc.reference):
        assert len(DecOperators(cplx).symmetry_axes()) == 4
        assert len(DecOperators(cplx, slab).symmetry_axes()) == 2
    return ScenarioStress.build(sc, slab)


@pytest.mark.parametrize("name", ["balls:1", "solid_torus"])
def test_coexact_columns_lie_in_their_character_block(request, name):
    """eig's character index of each coexact column names the only character basis
    that the column has a part in."""
    if name == "balls:1":
        st = request.getfixturevalue("balls_stress")
    else:
        st = ScenarioStress.build(canned_scenario(name, 1))
    for side in (st.sigma, st.reference):
        dec, bases = side.dec, side.ops.character_bases(1)
        kd = dec.kernel_dim
        chars = dec.characters[kd:]
        assert sorted(set(chars)) == list(range(len(bases))) == [0, 1, 2, 3]
        for m in range(len(bases)):
            V = dec.vectors[:, kd:][:, chars == m]
            for m2, B in enumerate(bases):
                if m2 != m:
                    assert np.linalg.norm(B.T @ V, axis=0).max() <= 1e-12


def test_decay_window_must_be_a_union_of_orbits(balls_stress):
    """A window that cuts a symmetry orbit raises, naming the orbit."""
    window = interior_window(balls_stress)
    with pytest.raises(ValueError, match=r"not a union of symmetry orbits: the orbit "
                                         r"\[\d+(, \d+)+\] of kept edge \d+ leaves it"):
        resolvent_difference_decay(balls_stress, np.array([1.0]), window[1:])


def test_decay_block_factors_hold_only_their_coexact_columns(monkeypatch, balls_stress):
    """No block's factor is wider than the kernel plus that block's coexact columns, and
    the blocks share out each side's coexact columns."""
    import decem.stress as stress

    calls, real = [], stress.SideData.hodge_system

    def recording(self, left=None, columns=None):
        L, evals = real(self, left, columns)
        calls.append((self, columns, L.shape[1]))
        return L, evals

    monkeypatch.setattr(stress.SideData, "hodge_system", recording)
    st = balls_stress
    resolvent_difference_decay(st, np.array([1.0, 5.0]))
    for side in (st.sigma, st.reference):
        dec, kd = side.dec, side.dec.kernel_dim
        mine = [(cols, width) for s, cols, width in calls if s is side]
        assert len(mine) == 4
        for cols, width in mine:
            assert width <= kd + np.sum(dec.characters[kd:] == dec.characters[cols[0]])
        got = np.sort(np.concatenate([cols for cols, _ in mine]))
        assert np.array_equal(got, np.arange(kd, len(dec.evals)))


def test_nearest_distance_is_the_one_broadcast():
    """Chunked distances equal the single n x n_b x 3 broadcast bit for bit."""
    from decem.stress import _DIST_CHUNK, _nearest_distance

    rng = np.random.default_rng(3)
    points, targets = rng.uniform(0, 7, (3 * _DIST_CHUNK + 5, 3)), rng.uniform(0, 7, (40, 3))
    want = np.min(np.linalg.norm(points[:, None, :] - targets[None, :, :], axis=2), axis=1)
    assert np.array_equal(_nearest_distance(points, targets), want)


def test_hodge_system_rotates_a_copy(tiny_stress):
    """hodge_system leaves the side's eigenvectors alone, with and without ``left``."""
    import scipy.sparse as sp

    side = tiny_stress.sigma
    before = side.dec.vectors.copy()
    V, evals = side.hodge_system()
    left = sp.random(7, side.ops.n(1), density=0.05, random_state=4, format="csr")
    L, evals_left = side.hodge_system(left)
    assert np.array_equal(side.dec.vectors, before)
    assert np.array_equal(evals, evals_left)
    assert np.abs(L - left @ V).max() <= 1e-12 * np.abs(left @ V).max()


def _loop_blocks(ops, p, X, blocks):
    """Per cell: the kernel block on its kept faces and the matching local block."""
    pos = ops.kept_pos(p)[ops.complex.face_ids(p)]
    for c, row in enumerate(pos):
        lidx = np.nonzero(row >= 0)[0]
        gidx = row[lidx]
        yield c, X[np.ix_(gidx, gidx)], blocks[c][np.ix_(lidx, lidx)]


def test_cell_gather_matches_per_cell_loops(monkeypatch, tiny_stress):
    """Vectorised traces and Maxwell tensor against per-cell loops, on kernel blocks
    that are not symmetric (so a transposed local block shows)."""
    import decem.stress as stress

    st = tiny_stress
    ops = st.sigma.ops
    rng = np.random.default_rng(7)
    X1 = rng.standard_normal((ops.n(1), ops.n(1)))
    X2 = rng.standard_normal((ops.n(2), ops.n(2)))
    # only the entries within one cell are read
    monkeypatch.setattr(stress, "kernel_blocks", lambda _st: (on_cells(X1, ops, 1),
                                                             on_cells(X2, ops, 2)))
    rep = local_energy_density(st)
    H = maxwell_tensor(st, rep)
    want_H = np.zeros_like(H)
    for p, X in ((1, X1), (2, X2)):
        want_t = np.zeros(len(rep.t00))
        _, mblocks = ops.local_mass(p)
        for c, Xc, mc in _loop_blocks(ops, p, X, mblocks):
            want_t[c] = np.trace(Xc @ mc)
        got_t = cell_traces(st, on_cells(X, ops, p), p)
        assert np.abs(got_t - want_t).max() <= 1e-12 * np.abs(want_t).max()
        _, kblocks = ops.component_blocks(p)
        for c, Xc, kc in _loop_blocks(ops, p, X, kblocks):
            for i in range(len(Xc)):
                for l in range(len(Xc)):
                    want_H[c] += 0.5 * Xc[i, l] * kc[i, l]
    want_H /= rep.cell_volumes[:, None, None]
    want_H += np.eye(3)[None] * rep.t00[:, None, None]
    assert np.abs(H - want_H).max() <= 1e-12 * np.abs(want_H).max()


def test_divergence_matches_per_vertex_loop(tiny_stress):
    """The scattered weak divergence against the per-cell vertex loop, on a
    stress field that is not symmetric."""
    from decem.forms import _cell_geometry

    st = tiny_stress
    cplx = st.sigma.ops.complex
    rep = local_energy_density(st)
    H = np.random.default_rng(8).standard_normal((cplx.n(3), 3, 3))
    div = divergence_residual(st, H, rep)
    vols, grads, _ = _cell_geometry(cplx)
    r = np.zeros((cplx.n(0), 3))
    volv = np.zeros(cplx.n(0))
    for c, verts in enumerate(cplx.face_ids(0)):
        for li, v in enumerate(verts):
            r[v] += vols[c] * (H[c].T @ grads[c, li])
            volv[v] += vols[c] / 4.0
    use = div["vertices"]
    assert len(use) > 0
    want = -r[use] / volv[use, None]
    assert np.abs(div["values"] - want).max() <= 1e-12 * np.abs(want).max()


# -- the block engine against its dense and per-sample references ------------------------


@pytest.fixture(scope="module")
def medium_stress():
    """A carved block beside a slab of eps = 2, mu = 1.5 that is not carved: the
    stress sides in an inhomogeneous medium.  Returns (st, scenario)."""
    from decem.forms import MaterialField
    from decem.geometries import box_complex
    from decem.mesh import carve_obstacle

    def tag(c):
        if 1 < c[0] < 2 and 2 < c[1] < 3 and 2 < c[2] < 3:
            return "block"
        return "slab" if 3 < c[0] < 5 else ""

    sc = carve_obstacle(box_complex((6, 5, 5), tag_fn=tag), {"block"})
    return ScenarioStress.build(sc, MaterialField(eps={"slab": 2.0}, mu={"slab": 1.5})), sc


@pytest.mark.parametrize("bundle", ["tiny_stress", "stress_bundle", "medium_stress"])
@pytest.mark.parametrize("which", ["D1", "D2"])
def test_pattern_kernels_match_dense_reference(request, bundle, which):
    """The engine's per-cell kernel blocks equal the dense W W^T - W0 W0^T gathered on
    each cell's kept DOFs, and are zero at its masked ones (D2 is formed through the
    local d1 by the engine)."""
    st = request.getfixturevalue(bundle)
    if bundle != "tiny_stress":
        st = st[0]
    p = 1 if which == "D1" else 2
    ops = st.sigma.ops
    X = kernel_blocks(st)[p - 1]
    cells = list(_loop_blocks(ops, p, dense_difference_kernel(st, which), X))
    scale = max(np.abs(want).max() for _c, want, _got in cells)
    for _c, want, got in cells:
        assert np.abs(got - want).max() <= 1e-12 * scale
    pos = ops.kept_pos(p)[ops.complex.face_ids(p)]
    masked = (pos < 0)[:, :, None] | (pos < 0)[:, None, :]
    assert not X[masked].any()


def test_trace_identity_sees_one_wrong_block(monkeypatch, tiny_stress):
    """tr(X M) comes from the eigenpairs, not from the blocks, so one perturbed cell
    block breaks the trace identity."""
    import decem.stress as stress

    real = stress.kernel_blocks

    def perturbed(st):
        X1, X2 = real(st)
        c = np.argmax(np.abs(X1).max(axis=(1, 2)))
        X1[c] += 1e-3 * np.abs(X1[c]).max() * np.eye(6)
        return X1, X2

    assert local_energy_density(tiny_stress).trace_identity_error() <= 1e-10
    monkeypatch.setattr(stress, "kernel_blocks", perturbed)
    assert local_energy_density(tiny_stress).trace_identity_error() > 1e-10


def test_inhomogeneous_stress_rows_pass(tmp_path, medium_stress):
    """A stress run on the slab mesh: its trace_identity and t0k rows pass."""
    from decem.cli import run_config

    _st, sc = medium_stress
    mesh = tmp_path / "slab.decmesh"
    mesh.write_text(sc.reference.to_text())
    _code, summary = run_config({
        "pipeline": "stress", "geometry": {"mesh": str(mesh), "obstacle_tags": ["block"]},
        "material": {"slab": {"eps": 2.0, "mu": 1.5}}, "params": {"decay": False},
    })
    rows = {r["name"]: r for r in summary["result"]["assertions"]}
    assert rows["trace_identity"]["ok"] and rows["t0k"]["ok"], rows


def _t0k_loop(st, unsymmetrize):
    """The per-sample t0k residual: one E, B draw and one pair of applies at a time."""
    from decem.stress import _side_factor

    rng = np.random.default_rng(0)
    ops_s = st.sigma.ops

    def half_power(side, skew):
        W, M = _side_factor(side, -0.5, False), side.ops.mass(1)

        def apply(x):
            x = x + skew * (np.sum(x) - np.cumsum(x))
            return W @ (W.T @ (M @ x))

        return apply

    def side_pair(ops, G1, E, B):
        cB = ops.apply_codifferential(2, B)
        dE, dB = ops.d(1) @ E, ops.d(1) @ cB
        t_a = float((ops.d(1) @ G1(cB)) @ (ops.mass(2) @ dE))
        t_b = float((ops.d(1) @ G1(E)) @ (ops.mass(2) @ dB))
        return t_a, t_b

    G1s = half_power(st.sigma, unsymmetrize)
    G1r = half_power(st.reference, 0.0)
    worst, scale = 0.0, 1e-300
    for _ in range(12):
        E = rng.standard_normal(ops_s.n(1))
        B = rng.standard_normal(ops_s.n(2))
        ta, tb = side_pair(ops_s, G1s, E, B)
        ta0, tb0 = side_pair(st.reference.ops, G1r, st.scatter(1, E), st.scatter(2, B))
        ta, tb = ta - ta0, tb - tb0
        worst = max(worst, abs(0.25 * (ta - tb)))
        scale = max(scale, abs(0.25 * ta), abs(0.25 * tb))
    return worst / scale


def test_t0k_block_matches_per_sample_loop(tiny_stress):
    """One n x 12 block against the per-sample loop.  With the control the
    residual is O(1) and agrees in relative terms; without it both are
    cancellation residuals, which agree to rounding in absolute terms."""
    ctrl = t0k_check(tiny_stress, unsymmetrize=0.05)
    want = _t0k_loop(tiny_stress, 0.05)
    assert abs(ctrl - want) <= 1e-12 * want
    got, want = t0k_check(tiny_stress), _t0k_loop(tiny_stress, 0.0)
    assert abs(got - want) <= 1e-12
