import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from decem.forms import DecOperators
from decem.geometries import box_complex, canned_scenario
from decem.topology import (
    check_harmonic_match,
    expected_dims,
    integer_rank,
    relative_cohomology_dims,
)


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=40, deadline=None)
def test_integer_rank_matches_numpy(m, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(-3, 4, size=(m, n))
    got = integer_rank(sp.csr_matrix(a))
    want = np.linalg.matrix_rank(a.astype(float))
    assert got == want


def test_integer_rank_needs_fraction_fallback():
    # no +-1 entries at all
    a = np.array([[2, 4], [6, 9]])
    assert integer_rank(sp.csr_matrix(a)) == 2
    b = np.array([[2, 4], [4, 8]])
    assert integer_rank(sp.csr_matrix(b)) == 1


def test_contractible_dims_vanish():
    box = box_complex((2, 2, 2))
    from decem.mesh import carve_obstacle

    sc = carve_obstacle(box, set())
    ops = DecOperators(sc.carved)
    rep = relative_cohomology_dims(ops)
    assert rep.dims[0] == 0 and rep.dims[1] == 0 and rep.dims[2] == 0


@pytest.mark.parametrize("name", ["balls:1", "balls:3", "solid_torus"])
def test_canned_dims(name):
    sc = canned_scenario(name)
    ops = DecOperators(sc.carved)
    rep = relative_cohomology_dims(ops)
    want = expected_dims(name)
    for p, v in want.items():
        assert rep.dims[p] == v


def test_expected_dims_table():
    assert expected_dims("balls:2") == {1: 2, 2: 0}
    assert expected_dims("balls(2)") == {1: 2, 2: 0}
    assert expected_dims("hopf_link") == {1: 2, 2: 2}
    assert expected_dims("wormhole_obstacle") == {1: 2, 2: 1}
    assert expected_dims("solid_torus") == {1: 1, 2: 1}
    with pytest.raises(KeyError):
        expected_dims("klein_bottle")


def test_expected_dims_read_the_canned_table():
    from decem.geometries import list_scenarios

    for row in list_scenarios():
        want = {1: row["expected_h1"], 2: row["expected_h2"]}
        assert expected_dims(row["name"]) == want, row["name"]


def test_harmonic_match_one_ball():
    from decem.spectral import assemble_laplacian, eig

    sc = canned_scenario("balls:1")
    ops = DecOperators(sc.carved)
    rep = relative_cohomology_dims(ops)
    kernel_dims = {}
    for p in (1, 2):
        dec = eig(assemble_laplacian(ops, p), count=6)
        kernel_dims[p] = dec.kernel_dim
    flags = check_harmonic_match(rep, kernel_dims)
    assert flags == {1: True, 2: True}


def test_refinement_stability_balls():
    for res in (1, 2):
        sc = canned_scenario("balls:1", res)
        ops = DecOperators(sc.carved)
        rep = relative_cohomology_dims(ops)
        assert rep.dims[1] == 1 and rep.dims[2] == 0


def test_refinement_stability_torus():
    for res in (1, 2):
        sc = canned_scenario("solid_torus", res)
        ops = DecOperators(sc.carved)
        rep = relative_cohomology_dims(ops)
        assert rep.dims[1] == 1 and rep.dims[2] == 1


def test_report_json():
    sc = canned_scenario("balls:1")
    ops = DecOperators(sc.carved)
    rep = relative_cohomology_dims(ops)
    rep.expected = expected_dims("balls:1")
    check_harmonic_match(rep, {1: 1, 2: 0})
    import json

    rows = json.loads(rep.to_json())
    row1 = [r for r in rows if r["p"] == 1][0]
    assert row1["dim_rel"] == 1 and row1["match"] is True and row1["expected"] == 1


def test_two_dimensional_complex_dims():
    """Relative cohomology of a 2D annulus-like square with a hole."""
    from decem.geometries import box2d_complex
    from decem.mesh import carve_obstacle

    def tag(c):
        return "hole" if (1 < c[0] < 2 and 1 < c[1] < 2) else ""

    sq = box2d_complex((3, 3), tag_fn=tag)
    sc = carve_obstacle(sq, {"hole"})
    ops = DecOperators(sc.carved)
    rep = relative_cohomology_dims(ops)
    # H^1 of (annulus, full boundary) over Q has dimension 1
    assert rep.dims[0] == 0 and rep.dims[1] == 1
