import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import decem.forms as forms
from decem.forms import DecOperators, MaterialField, build_d, build_mass, local_mass_blocks
from decem.geometries import box2d_complex, box_complex, canned_scenario
from decem.mesh import SimplicialComplex

TET = SimplicialComplex.from_top_cells(
    np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    np.array([[0, 1, 2, 3]]),
    [""],
)


def mass(cplx, material, p):
    return build_mass(cplx, material, p, forms._cell_geometry(cplx))


def test_d_of_constants_is_zero():
    tri = box2d_complex((1, 1))
    d0 = build_d(tri, 0)
    assert abs(d0 @ np.ones(tri.n(0))).max() == 0


def test_d_squared_zero_exact():
    box = box_complex((3, 2, 2))
    d0, d1, d2 = build_d(box, 0), build_d(box, 1), build_d(box, 2)
    assert abs((d1 @ d0)).max() == 0
    assert abs((d2 @ d1)).max() == 0


def test_d0_coordinate_extents():
    box = box_complex((2, 2, 2))
    x = box.vertices[box.simplices[0][:, 0], 0]
    edge_vals = build_d(box, 0) @ x
    edges = box.simplices[1]
    expected = box.vertices[edges[:, 1], 0] - box.vertices[edges[:, 0], 0]
    assert np.allclose(edge_vals, expected, atol=0, rtol=0)


def test_p0_mass_reference_tet():
    m = mass(TET, MaterialField.vacuum(), 0).toarray()
    vol = 1.0 / 6.0
    expect = vol * (np.ones((4, 4)) + np.eye(4)) / 20.0
    assert np.allclose(m, expect, rtol=1e-14)


def test_top_degree_mass():
    m = mass(TET, MaterialField.vacuum(), 3).toarray()
    # the Whitney volume form has L2 norm 1/sqrt(vol)
    assert np.allclose(m, [[6.0]], rtol=1e-12)


def test_mass_spd():
    box = box_complex((2, 2, 2))
    for p in range(4):
        m = mass(box, MaterialField.vacuum(), p).toarray()
        w = np.linalg.eigvalsh(m)
        assert w.min() > 0


@given(s=st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=10, deadline=None)
def test_material_scaling_degree1(s):
    box = box_complex((2, 2, 2))
    base = mass(box, MaterialField.vacuum(), 1)
    scaled = mass(box, MaterialField(eps={"": s}), 1)
    assert abs(scaled - s * base).max() <= 1e-12 * s * abs(base).max()


@given(s=st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=10, deadline=None)
def test_material_scaling_degree2(s):
    box = box_complex((2, 2, 2))
    base = mass(box, MaterialField.vacuum(), 2)
    scaled = mass(box, MaterialField(mu={"": s}), 2)
    assert abs(scaled - base / s).max() <= 1e-12 / s * abs(base).max()


def test_mass_eigenvalue_envelope_under_material():
    # eigenvalues stay inside the tau bounds relative to vacuum
    box = box_complex((2, 2, 2))
    mat = MaterialField(eps={"": 2.0}, mu={"": 1.5})
    for p in range(4):
        w_vac = np.sort(np.linalg.eigvalsh(mass(box, MaterialField.vacuum(), p).toarray()))
        w_mat = np.sort(np.linalg.eigvalsh(mass(box, mat, p).toarray()))
        weight = mat.weight("", p)
        assert np.allclose(w_mat, weight * w_vac, rtol=1e-10)


def _material_box():
    box = box_complex((3, 3, 3), tag_fn=lambda c: "m" if c[0] < 1.5 else "")
    return DecOperators(box, MaterialField(eps={"m": 2.0}, mu={"m": 1.5}))


def test_adjointness_no_boundary_term():
    ops = _material_box()
    rng = np.random.default_rng(0)
    for p in (0, 1, 2):
        a = rng.standard_normal(ops.n(p))
        b = rng.standard_normal(ops.n(p + 1))
        lhs = (ops.d(p) @ a) @ (ops.mass(p + 1) @ b)
        rhs = a @ (ops.mass(p) @ ops.apply_codifferential(p + 1, b))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_adjointness_matrix_residual():
    ops = _material_box()
    for p in (1, 2, 3):
        lhs = ops.mass(p - 1).toarray() @ ops.apply_codifferential(p, np.eye(ops.n(p)))
        rhs = (ops.d(p - 1).T @ ops.mass(p)).toarray()
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_codifferential_squared_zero():
    ops = _material_box()
    rng = np.random.default_rng(1)
    x = rng.standard_normal(ops.n(2))
    y = ops.apply_codifferential(1, ops.apply_codifferential(2, x))
    assert np.abs(y).max() <= 1e-12 * np.abs(x).max()


def test_vacuum_codifferential_matches_untwisted():
    box = box_complex((2, 2, 2))
    vac = DecOperators(box, MaterialField.vacuum())
    alt = DecOperators(box, MaterialField(eps={"": 1.0}, mu={"": 1.0}))
    eye = np.eye(vac.n(1))
    assert np.allclose(
        vac.apply_codifferential(1, eye), alt.apply_codifferential(1, eye), atol=1e-14
    )


def test_reduction_counts():
    sc_box = box_complex((3, 3, 3))
    ops = DecOperators(sc_box)
    n_bedges = len(sc_box.boundary_subsimplices(1))
    assert ops.n(1) == sc_box.n(1) - n_bedges
    # no tetrahedron lies inside a boundary facet, so every top cell is kept
    assert ops.n(3) == sc_box.n(3)


def test_reduced_d_squared_zero():
    ops = _material_box()
    assert abs((ops.d(1) @ ops.d(0))).max() == 0


def test_component_blocks_trace_matches_mass():
    ops = _material_box()
    for p in (1, 2):
        fids_m, blocks_m = ops.local_mass(p)
        fids_c, blocks_c = ops.component_blocks(p)
        assert np.array_equal(fids_m, fids_c)
        tr = np.einsum("ciljj->cil", blocks_c)
        assert np.abs(tr - blocks_m).max() <= 1e-12 * np.abs(blocks_m).max()


def _two_region_box():
    box = box_complex((3, 2, 2), tag_fn=lambda c: "a" if c[0] < 1.5 else "b")
    return box, MaterialField(eps={"a": 2.0, "b": 0.5}, mu={"a": 1.5, "b": 2.0})


def test_local_mass_blocks_match_per_cell_weight_loop(monkeypatch):
    """One weight per region tag gives the blocks of one material.weight call per cell."""
    box, mat = _two_region_box()
    geometry = forms._cell_geometry(box)
    got = [local_mass_blocks(box, mat, p, geometry) for p in range(4)]

    def per_cell(cplx, material, p, vols):
        return np.array([material.weight(tag, p) for tag in cplx.regions]) * vols

    monkeypatch.setattr(forms, "_cell_weights", per_cell)
    for p in range(4):
        fids, blocks = local_mass_blocks(box, mat, p, geometry)
        assert np.array_equal(fids, got[p][0])
        assert np.array_equal(blocks, got[p][1])
        assert len(np.unique(blocks[:, 0, 0])) > 1


def test_shared_cell_geometry_gives_fresh_blocks():
    """The bundle's one cell geometry, after every per-cell use, still gives the
    blocks of a geometry computed afresh."""
    box, mat = _two_region_box()
    ops = DecOperators(box, mat)
    for p in (1, 2):
        ops.local_mass(p)
        ops.component_blocks(p)
    fresh = DecOperators(box, mat)
    for p in (1, 2):
        fids, blocks = ops.local_mass(p)
        want = local_mass_blocks(box, mat, p, forms._cell_geometry(box))
        assert np.array_equal(fids, want[0]) and np.array_equal(blocks, want[1])
        fids, blocks = ops.component_blocks(p)
        want = fresh.component_blocks(p)
        assert np.array_equal(fids, want[0]) and np.array_equal(blocks, want[1])
    for p in range(4):
        assert (ops.mass_full[p] != mass(box, mat, p)).nnz == 0


def test_material_positivity_validation():
    with pytest.raises(ValueError):
        MaterialField(eps={"x": -1.0})


def test_material_bounds():
    mat = MaterialField(eps={"a": 2.0}, mu={"a": 3.0})
    lo, hi = mat.bounds(["a", ""])
    assert lo == 1.0 and hi == 6.0


def _bitwise_equal(a, b) -> bool:
    a, b = a.tocsr(), b.tocsr()
    return all(np.array_equal(getattr(a, k), getattr(b, k)) for k in ("indptr", "indices", "data"))


def test_operator_bundle_assembles_no_mass_up_front(monkeypatch):
    calls = []
    real = forms.build_mass

    def counting(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(forms, "build_mass", counting)
    box, mat = _two_region_box()
    ops = DecOperators(box, mat)
    assert calls == []
    ops.mass(1)
    ops.mass_full[1]
    assert calls == [1]
    with pytest.raises(KeyError):
        ops.mass_full[4]


@pytest.mark.parametrize("order", [(0, 1, 2, 3), (3, 2, 1, 0)])
def test_masses_on_first_use_are_bitwise_fresh(order):
    """Per-degree assembly in any access order gives build_mass on a fresh geometry."""
    box, mat = _two_region_box()
    ops = DecOperators(box, mat)
    for p in order:
        first = ops.mass_full[p]
        assert ops.mass_full[p] is first
        assert _bitwise_equal(first, build_mass(box, mat, p, forms._cell_geometry(box)))


# -- the symmetry group of the operators ----------------------------------------------


def _symmetries(ops, p):
    """The operators' symmetry group as signed permutation matrices of the kept p-DOFs."""
    return [forms._signed_permutation(img, sgn) for img, sgn in ops._group(p)]


@pytest.mark.parametrize("name, blocks", [("balls:1", 4), ("solid_torus", 4),
                                          ("wormhole_obstacle", 1)])
def test_symmetry_blocks_per_canned_geometry(name, blocks):
    """Both sides of each geometry split into this many nonempty character blocks, whose
    bases together are orthonormal and complete.  The glued wormhole has no symmetry."""
    sc = canned_scenario(name, 1)
    for cplx in (sc.carved, sc.reference):
        ops = DecOperators(cplx)
        bases = ops.character_bases(1)
        assert len(bases) == len(_symmetries(ops, 1)) == blocks
        assert all(B.shape[1] for B in bases)
        B = sp.hstack(bases).toarray()
        assert B.shape == (ops.n(1), ops.n(1))
        assert np.abs(B.T @ B - np.eye(ops.n(1))).max() <= 1e-15


def test_material_that_breaks_a_symmetry_drops_it():
    """The central inversion of the 3 x 2 x 2 box swaps its two regions: kept in vacuum,
    dropped when their eps and mu differ, which leaves the y-z swap."""
    box, mat = _two_region_box()
    assert len(_symmetries(DecOperators(box), 1)) == 4
    ops = DecOperators(box, mat)
    assert len(_symmetries(ops, 1)) == 2
    assert [g.A.tolist() for g in ops._generators] == [[[1, 0, 0], [0, 0, 1], [0, 1, 0]]]


@pytest.fixture(scope="module")
def torus_ops():
    return DecOperators(canned_scenario("solid_torus", 1).carved)


def test_symmetries_commute_with_d_exactly(torus_ops):
    ops = torus_ops
    for p in range(ops.complex.dim):
        d = ops.d(p)
        for P, Q in zip(_symmetries(ops, p), _symmetries(ops, p + 1)):
            assert abs(Q @ d - d @ P).max() == 0.0


def test_symmetries_keep_the_masses(torus_ops):
    ops = torus_ops
    for p in range(ops.complex.dim + 1):
        M = ops.mass(p)
        for P in _symmetries(ops, p):
            err = abs(P.T @ M @ P - M).max() / abs(M).max()
            assert err <= 1e-12, f"P^T M_{p} P = M_{p}: relative {err:.2e} > 1.00e-12"


def test_symmetry_that_breaks_the_mass_raises_with_its_measure():
    """A mass matrix that a symmetry does not keep fails the group's check, which names
    the measured deviation and the tolerance."""
    ops = DecOperators(canned_scenario("solid_torus", 1).carved)
    M = ops.mass(1).copy()
    M[0, 0] *= 1 + 1e-9
    ops._cache["mass", 1] = M
    with pytest.raises(AssertionError, match=r"M_1 is not invariant .*: relative "
                                             r"[0-9.]+e-1[01] > 1\.00e-12"):
        ops.character_bases(1)
