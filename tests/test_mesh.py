import re

import numpy as np
import pytest

from decem.geometries import box_complex, canned_scenario, chain_complex
from decem.mesh import (
    MeshError,
    SimplicialComplex,
    boundary_components,
    carve_obstacle,
    glue_vertices,
    load_complex,
)

TET = SimplicialComplex.from_top_cells(
    np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    np.array([[0, 1, 2, 3]]),
    [""],
)


def test_single_tet_counts():
    assert [TET.n(p) for p in range(4)] == [4, 6, 4, 1]
    assert TET.euler_characteristic() == 1
    assert len(boundary_components(TET)) == 1


def test_structured_cube_euler():
    box = box_complex((2, 2, 2))
    # contractible solid: V - E + F - T = 1
    assert box.euler_characteristic() == 1


def test_load_single_tet_from_text():
    text = TET.to_text()
    c = load_complex(text)
    assert [c.n(p) for p in range(4)] == [4, 6, 4, 1]


def test_roundtrip_bit_identical():
    sc = canned_scenario("balls:1")
    text = sc.carved.to_text()
    again = load_complex(text).to_text()
    assert again == text


def test_dangling_face_rejected():
    # a triangle whose edge list misses one edge
    text = "\n".join(
        [
            "decmesh 1",
            "dim 2",
            "vertices 3",
            "0.0 0.0",
            "1.0 0.0",
            "0.0 1.0",
            "simplices 1 2",
            "0 1",
            "0 2",
            "simplices 2 1",
            "0 1 2",
            "end",
        ]
    )
    with pytest.raises(MeshError, match="dangling"):
        load_complex(text)


def test_duplicate_simplex_rejected():
    text = "\n".join(
        [
            "decmesh 1",
            "dim 2",
            "vertices 3",
            "0.0 0.0",
            "1.0 0.0",
            "0.0 1.0",
            "simplices 1 4",
            "0 1",
            "1 2",
            "0 2",
            "1 0",
            "simplices 2 1",
            "0 1 2",
            "end",
        ]
    )
    with pytest.raises(MeshError, match="duplicate"):
        load_complex(text)


def test_bad_marker_rejected():
    lines = TET.to_text().splitlines()
    lines.insert(-1, "outer 0 1 2")  # duplicates an existing marker line
    with pytest.raises(MeshError):
        load_complex("\n".join(lines))


@pytest.mark.parametrize("line", ["inner 0 1 7", "inner 0 1", "inner 0 1 2 3", "inner 0 0 1"])
def test_marker_naming_unknown_facet_rejected(line):
    lines = TET.to_text().splitlines()
    lines.insert(-1, line)
    with pytest.raises(MeshError, match="'inner' names unknown facet"):
        load_complex("\n".join(lines))


def test_nonmanifold_facet_rejected():
    # three tets sharing one triangle
    verts = np.array(
        [[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1], [1, 1, 1.0]]
    )
    cells = np.array([[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]])
    with pytest.raises(MeshError, match="manifold"):
        SimplicialComplex.from_top_cells(verts, cells, ["", "", ""]).boundary_facets()


def test_tetgen_import(tmp_path):
    node = tmp_path / "m.node"
    node.write_text("4 3 0 0\n1 0.0 0.0 0.0\n2 1.0 0.0 0.0\n3 0.0 1.0 0.0\n4 0.0 0.0 1.0\n")
    ele = tmp_path / "m.ele"
    ele.write_text("1 4 0\n1 1 2 3 4\n")
    c = load_complex(str(tmp_path / "m"), fmt="tetgen")
    assert [c.n(p) for p in range(4)] == [4, 6, 4, 1]


def _tetgen_pair(cplx, attrs: bool = True) -> tuple[list[str], list[str]]:
    """The ``.node`` and ``.ele`` lines of a 3-complex, ids from 1, the cells' regions
    as attributes r0, r1, ... (numbered in order of first use)."""
    node = [f"{cplx.n(0)} 3 0 0"] + [
        f"{i + 1} {x:.17g} {y:.17g} {z:.17g}" for i, (x, y, z) in enumerate(cplx.vertices)]
    tags = list(dict.fromkeys(cplx.regions))
    ele = [f"{cplx.n(3)} 4 {int(attrs)}"] + [
        " ".join(map(str, [c + 1, *(cell + 1)] + ([tags.index(t)] if attrs else [])))
        for c, (cell, t) in enumerate(zip(cplx.simplices[3], cplx.regions))]
    return node, ele


def _load_pair(tmp_path, node: list[str], ele: list[str]):
    (tmp_path / "m.node").write_text("\n".join(node) + "\n")
    (tmp_path / "m.ele").write_text("\n".join(ele) + "\n")
    return load_complex(str(tmp_path / "m"), fmt="tetgen")


def _flat_box():
    """The 2 x 2 x 2 box with its centre vertex moved onto (1, 1, 0), a vertex of its
    bottom face: the cells that held both are flat."""
    box = box_complex((2, 2, 2))
    box.vertices[int(np.argmin(np.linalg.norm(box.vertices - 1.0, axis=1)))] = (1, 1, 0)
    return box


def test_zero_volume_cell_raises_mesh_error_at_load(tmp_path):
    """A flat cell fails as MeshError when its decmesh or tetgen file is loaded, naming
    the cell and where its vertices are, not later as a bare ValueError from the
    assembly."""
    box = _flat_box()
    with pytest.raises(MeshError, match=r"^simplices 3: cell \(\d+, \d+, \d+, \d+\) has zero "
                                        r"volume; its vertices are at \[\[.*\]\]$"):
        load_complex(box.to_text())
    with pytest.raises(MeshError, match=r"m\.ele, line \d+: '[\d ]+' is a cell of zero "
                                        r"volume; its points are at \[\[.*\]\]$"):
        _load_pair(tmp_path, *_tetgen_pair(box, attrs=False))


def test_tetgen_pair_round_trips_regions(tmp_path):
    ref = canned_scenario("cube_obstacle", 1).reference
    got = _load_pair(tmp_path, *_tetgen_pair(ref))
    assert np.array_equal(got.simplices[3], ref.simplices[3])
    assert np.array_equal(got.vertices, ref.vertices)
    assert sorted(set(got.regions)) == ["r0", "r1"]


@pytest.mark.parametrize("which, line, text, message", [
    ("node", 2, "2 1.0 zero 0.0", "m.node, line 3: '2 1.0 zero 0.0' is not a row of floats"),
    ("node", 2, "2 1.0 inf 0.0", "m.node, line 3: '2 1.0 inf 0.0' has a number that is not "
     "finite"),
    ("node", 2, "7 1.0 0.0 0.0", "m.node, line 3: '7 1.0 0.0 0.0' breaks the run of point "
     "ids from 0 or 1"),
    ("node", 0, "4 3 0", "m.node: the header counts 4 rows, the file has 5"),
    ("node", 0, "5 0 0 0", "m.node, line 1: '5 0 0 0' is not a header of two counts >= 1 "
     "and more >= 0"),
    ("ele", 1, "1 1 2 3", "m.ele, line 2: '1 1 2 3' has 4 entries, not 5"),
    ("ele", 1, "1 1 2 3 9", "m.ele, line 2: '1 1 2 3 9' names a point twice or outside 1..5"),
    ("ele", 1, "1 1 2 3 3", "m.ele, line 2: '1 1 2 3 3' names a point twice or outside 1..5"),
    ("ele", 0, "2 3 0", "m.ele, line 1: '2 3 0' has 3 points per cell, not 4"),
])
def test_malformed_tetgen_line_names_file_and_line(tmp_path, which, line, text, message):
    """Each malformed row raises MeshError naming its file, its line and the reason
    (a 3-id row once loaded as a 2-complex, a point id past the count once failed as a
    missing 2-simplex)."""
    pair = {"node": ["5 3 0 0", "1 0 0 0", "2 1 0 0", "3 0 1 0", "4 0 0 1", "5 1 1 1"],
            "ele": ["2 4 0", "1 1 2 3 4", "2 2 3 4 5"]}
    pair[which][line] = text
    with pytest.raises(MeshError) as info:
        _load_pair(tmp_path, pair["node"], pair["ele"])
    assert str(info.value) == f"{tmp_path}/{message}"


def test_mutated_tetgen_pair_loads_or_raises_mesh_error(tmp_path):
    """300 seeded line mutations of one file of a tetgen pair (a 2x2x2 box with one
    region attribute per cell): each loads or raises MeshError, never another
    exception."""
    pair = _tetgen_pair(box_complex((2, 2, 2), tag_fn=lambda c: "a" if c[0] < 1 else ""))
    rng = np.random.default_rng(2028)
    outcomes = {"loaded": 0, "MeshError": 0}
    for _ in range(300):
        which = int(rng.integers(2))
        files = [_mutated(f, rng) if k == which else f for k, f in enumerate(pair)]
        try:
            _load_pair(tmp_path, *files)
            outcomes["loaded"] += 1
        except MeshError:
            outcomes["MeshError"] += 1
    assert outcomes["MeshError"] > 150 and outcomes["loaded"] > 20, outcomes


def test_carve_empty_tags_is_identity():
    box = box_complex((3, 3, 3))
    sc = carve_obstacle(box, set())
    assert sc.carved is sc.reference
    for p in range(4):
        assert np.array_equal(sc.injections[p], np.arange(box.n(p)))


def test_carve_one_ball_components():
    sc = canned_scenario("balls:1")
    comps = boundary_components(sc.carved)
    assert len(comps) == 2
    markers = sorted(m for m, _ in comps)
    assert markers == ["obstacle", "outer"]


def test_carve_two_balls_components():
    sc = canned_scenario("balls:2")
    comps = boundary_components(sc.carved)
    assert len(comps) == 3
    assert sorted(m for m, _ in comps) == ["obstacle", "obstacle", "outer"]


def test_carve_hopf_three_components():
    sc = canned_scenario("hopf_link")
    assert len(boundary_components(sc.carved)) == 3


def test_carve_whole_complex_rejected():
    box = box_complex((2, 2, 2), tag_fn=lambda c: "all")
    with pytest.raises(MeshError):
        carve_obstacle(box, {"all"})


def test_obstacle_touching_outer_rejected():
    box = box_complex((3, 3, 3), tag_fn=lambda c: "edge" if c[0] < 1 else "")
    with pytest.raises(MeshError, match="outer"):
        carve_obstacle(box, {"edge"})


def test_obstacle_touching_outer_at_a_vertex_rejected():
    box = box_complex((4, 4, 4), tag_fn=lambda c: "o" if min(c) > 1 and max(c) < 2 else "")
    assert carve_obstacle(box, {"o"}).has_obstacle  # strictly interior cube: accepted
    # the tetrahedron (1,1,0) (1,1,1) (1,2,1) (2,2,1) meets the hull only at (1, 1, 0)
    box = box_complex((4, 4, 4))
    vid = {tuple(v): i for i, v in enumerate(box.vertices)}
    cell_id = {tuple(row): i for i, row in enumerate(box.simplices[3])}
    tip = cell_id[tuple(sorted(vid[c] for c in [(1, 1, 0), (1, 1, 1), (1, 2, 1), (2, 2, 1)]))]
    box.regions = ["o" if i == tip else "" for i in range(box.n(3))]
    with pytest.raises(MeshError, match="outer boundary at vertex"):
        carve_obstacle(box, {"o"})


def test_repeated_marker_facet_set_in_code_rejected():
    c = SimplicialComplex.from_top_cells(TET.vertices, np.array([[0, 1, 2, 3]]), [""])
    c.boundary_markers = {"outer": np.array([0, 0, 1, 2, 3])}
    with pytest.raises(MeshError, match=r"'outer' names facet \(0, 1, 2\) more than once"):
        c.validate()


def test_injections_commute_with_incidence():
    from decem.forms import build_d

    sc = canned_scenario("balls:1")
    for p in range(3):
        D_ref = build_d(sc.reference, p)
        D_sig = build_d(sc.carved, p)
        diff = D_ref[sc.injections[p + 1]][:, sc.injections[p]] - D_sig
        assert abs(diff).max() == 0


def test_carved_simplices_are_sublists():
    sc = canned_scenario("balls:1")
    for p in range(4):
        ref_rows = {tuple(r) for r in sc.reference.simplices[p]}
        for row in sc.carved.simplices[p]:
            assert tuple(row) in ref_rows


def test_reglue_recovers_reference_cells():
    sc = canned_scenario("balls:1")
    carved_cells = {tuple(r) for r in sc.carved.simplices[3]}
    obstacle_cells = {
        tuple(sc.reference.simplices[3][i])
        for i, tag in enumerate(sc.reference.regions)
        if tag in sc.obstacle_tags
    }
    all_cells = {tuple(r) for r in sc.reference.simplices[3]}
    assert carved_cells | obstacle_cells == all_cells
    assert not carved_cells & obstacle_cells


def test_wormhole_glue_structure():
    sc = canned_scenario("wormhole_obstacle")
    # gluing removed both sphere components: only obstacle + outer remain
    comps = boundary_components(sc.carved)
    assert sorted(m for m, _ in comps) == ["obstacle", "outer"]


def test_wormhole_res2_notched_glue_rejected():
    """At res 2 the voxel glue spheres have notches, and the glue is refused by name.

    A triangle off sphere 2 with all vertices on it maps onto one off sphere 1,
    which would give the glued facet 4 cofaces; the builder says so before gluing.
    """
    with pytest.raises(MeshError) as err:
        canned_scenario("wormhole_obstacle", 2)
    m = re.fullmatch(
        r"wormhole glue \(sphere 2 onto sphere 1\) maps facet \(\d+, \d+, \d+\) "
        r"onto facet \(\d+, \d+, \d+\) at \[(.*)\]; neither is a glue-sphere facet "
        r"but all their vertices are on the spheres, so the glued facet would have 4 cofaces",
        str(err.value),
    )
    assert m, str(err.value)
    at = np.array([float(x) for x in re.findall(r"-?\d+\.\d+", m[1])]).reshape(3, 3)
    # the named facet is on sphere 1: within one voxel diagonal of radius 1.2 about (3, 3, 3)
    r = np.linalg.norm(at - 3.0, axis=1)
    assert np.all(np.abs(r - 1.2) <= np.sqrt(3) / 2)


def test_glue_requires_disjoint_domain_range():
    box = box_complex((2, 2, 2))
    with pytest.raises(MeshError):
        glue_vertices(box, {0: 1, 1: 2})


def test_chain_complex_boundary():
    ch = chain_complex(5)
    assert ch.n(0) == 6 and ch.n(1) == 5
    assert len(ch.boundary_facets()) == 2


def test_metadata_json_stable():
    sc = canned_scenario("balls:1")
    assert sc.carved.metadata_json() == sc.carved.metadata_json()
    meta = sc.carved.metadata()
    assert meta["counts"]["3"] == sc.carved.n(3)


# -- array lookups against the tuple-dict algorithm they replace ---------------------


def _tuple_dict_oracle(cplx):
    """Face tables of ``cplx`` built with per-simplex tuple dicts and loops."""
    from collections import Counter
    from itertools import combinations

    d = cplx.dim
    rows = {p: [tuple(map(int, r)) for r in cplx.simplices[p]] for p in range(d + 1)}
    index = {p: {r: i for i, r in enumerate(rows[p])} for p in range(d + 1)}

    def faces(s):  # face k omits vertex k
        return [tuple(int(v) for v in np.delete(s, k)) for k in range(len(s))]

    d_p = {p: {(i, index[p][f]): (-1) ** k for i, s in enumerate(cplx.simplices[p + 1])
               for k, f in enumerate(faces(s))} for p in range(d)}
    counts = Counter(f for s in cplx.simplices[d] for f in faces(s))
    bf = sorted(index[d - 1][f] for f, c in counts.items() if c == 1)
    bsub = {p: sorted({index[p][c] for i in bf for c in combinations(rows[d - 1][i], p + 1)})
            for p in range(d)}
    face_ids = {p: [[index[p][c] for c in combinations(s, p + 1)] for s in rows[d]]
                for p in range(d)}
    # boundary components: facets joined by shared ridges, searched depth first
    by_ridge: dict = {}
    for i in bf:
        for r in faces(cplx.simplices[d - 1][i]):
            by_ridge.setdefault(r, []).append(i)
    comps, seen = [], set()
    for i in bf:
        if i not in seen:
            stack, comp = [i], set()
            seen.add(i)
            while stack:
                cur = stack.pop()
                comp.add(cur)
                for r in faces(cplx.simplices[d - 1][cur]):
                    stack += [j for j in by_ridge[r] if j not in seen]
                    seen.update(by_ridge[r])
            comps.append(sorted(comp))
    return index, d_p, bf, bsub, face_ids, sorted(comps)


def _check_against_oracle(cplx):
    from decem.forms import build_d

    index, d_p, bf, bsub, face_ids, comps = _tuple_dict_oracle(cplx)
    d = cplx.dim
    for p in range(d + 1):
        rows = list(index[p])
        assert np.array_equal(cplx.lookup(p, rows), list(index[p].values()))
        assert np.array_equal(cplx.lookup(p, [r[::-1] for r in rows]), list(index[p].values()))
    for p in range(d):
        coo = build_d(cplx, p).tocoo()
        assert dict(zip(zip(coo.row.tolist(), coo.col.tolist()), coo.data.tolist())) == d_p[p]
        assert np.array_equal(cplx.face_ids(p), face_ids[p])
        assert np.array_equal(cplx.boundary_subsimplices(p), bsub[p])
    assert np.array_equal(cplx.boundary_facets(), bf)
    assert sorted(c.tolist() for _, c in boundary_components(cplx)) == comps
    return index


@pytest.mark.parametrize(
    "name", ["balls:2", "hopf_link", "solid_torus", "wormhole_obstacle", "concentric_spheres"]
)
def test_array_lookups_match_tuple_dicts(name):
    sc = canned_scenario(name, 1)
    ref_index = _check_against_oracle(sc.reference)
    _check_against_oracle(sc.carved)
    for p in range(sc.carved.dim + 1):
        want = [ref_index[p][tuple(map(int, s))] for s in sc.carved.simplices[p]]
        assert np.array_equal(sc.injections[p], want)


def test_moebius_band_lookups_and_boundary():
    # the five-vertex Moebius band: triangles {i, i+1, i+2} mod 5, one boundary circle
    cells = np.array([[i, (i + 1) % 5, (i + 2) % 5] for i in range(5)])
    band = SimplicialComplex.from_top_cells(np.zeros((5, 2)), cells)
    _check_against_oracle(band)
    assert len(boundary_components(band)) == 1


def test_lookup_names_a_missing_row():
    assert np.array_equal(TET.lookup(1, [[3, 0], [1, 2]]), [2, 3])
    with pytest.raises(MeshError, match=r"1-simplex \(0, 4\) is not in the complex"):
        TET.lookup(1, [[0, 1], [0, 4], [1, 9]])
    with pytest.raises(MeshError, match=r"2-simplex \(-1, 1, 2\)"):
        TET.lookup(2, [[-1, 1, 2]])


def test_lookup_overflow_guard_names_the_limit():
    verts = np.zeros((60000, 3))
    verts[1:4] = np.eye(3)
    c = SimplicialComplex.from_top_cells(verts, np.array([[0, 1, 2, 3]]))
    assert np.array_equal(c.lookup(2, [[0, 1, 2]]), [0])
    assert np.array_equal(c.face_ids(3), [[0]])
    with pytest.raises(MeshError, match=r"60000 vertices overflow .*limit 55108"):
        c.lookup(3, [[0, 1, 2, 3]])


# sha256 of dump-mesh's outputs (res, carved mesh text, metadata JSON).  The res-1
# balls:1 and hopf_link pins were written before faces were found by array
# lookup; wormhole_obstacle (the mirror_x walk) and balls:2 at res 2 before the
# voxel walks and the text writer were vectorised.
GOLDEN_DUMPS = {
    "balls:1": (
        1,
        "f6da2fec59691084665719a724d630c9fbc8e28fd786d37e7ac3fb5789bfe4c7",
        "312466dc636d39a0402abfba4898956c799f72953965a57b72a579de56598421",
    ),
    "hopf_link": (
        1,
        "970745ca09234e9d4e03720f30ffde1076bc881347602ca41e7f923e7f049c03",
        "7d6e44d3e71af382687ef5ea265ff527538499c18dc69816dee4ce5a2e1e4bfb",
    ),
    "wormhole_obstacle": (
        1,
        "77458303255a0e450e2a236f35db583cde7ef6c6dce829df3675ae4e4f5cd6de",
        "78f77cc8054bdacc83b39fa9cbac232495bf106bad980ebaa09da351be456501",
    ),
    "balls:2": (
        2,
        "bfcab5ae2a2599b655996c681549de1d8d8f66993b08919144867ffaa506e7bc",
        "3a25ee0086db76418f427487135ebace22d0025f9a32587a9a9d6d0f93b9f029",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DUMPS))
def test_dump_mesh_golden(name):
    import hashlib

    res, *want = GOLDEN_DUMPS[name]
    c = canned_scenario(name, res).carved
    text = hashlib.sha256(c.to_text().encode()).hexdigest()
    meta = hashlib.sha256(c.metadata_json().encode()).hexdigest()
    assert [text, meta] == want


# -- malformed decmesh text -------------------------------------------------------------


@pytest.mark.parametrize("line, text, message", [
    (1, "dim three", "dim, line 2: 'dim three' is not a row of ints"),
    (2, "vertices", "vertices, line 3: 'vertices' is not a 'vertices' line with 1 count(s) >= 0"),
    (4, "1.0 0.0 zero", "vertices, line 5: '1.0 0.0 zero' is not a row of floats"),
    (4, "1.0 0.0", "vertices, line 5: '1.0 0.0' has 2 entries, not 3"),
    (4, "1.0 nan 0.0", "vertices: a coordinate is not finite"),
    (7, "simplices 1 six", "simplices, line 8: 'simplices 1 six' is not a row of ints"),
    (7, "simplices 4 6", "simplices, line 8: degree 4 is not in 1..3"),
    (8, "0 1 2", "simplices 1, line 9: '0 1 2' has 3 entries, not 2"),
    (8, "0 99999999999999999999",
     "simplices 1, line 9: '0 99999999999999999999' has an int that does not fit in 64 bits"),
    (26, "outer 0 1 x", "boundary, line 27: 'outer 0 1 x' is not a row of ints"),
])
def test_malformed_decmesh_line_names_section_and_line(line, text, message):
    lines = TET.to_text().splitlines()
    lines[line] = text
    with pytest.raises(MeshError) as info:
        load_complex("\n".join(lines) + "\n")
    assert str(info.value) == message


_MUTATION_TOKENS = ["x", "-1", "1.5", "nan", "inf", "", "99999999999999999999", "0", "3", "end"]


def _mutated(lines: list[str], rng) -> list[str]:
    """One seeded line edit: delete, repeat, swap with the next, replace or drop a
    token, or append one."""
    lines = list(lines)
    i, op = int(rng.integers(len(lines))), int(rng.integers(6))
    tok = lines[i].split()
    if op == 0:
        del lines[i]
    elif op == 1:
        lines.insert(i, lines[i])
    elif op == 2:
        tok[int(rng.integers(len(tok)))] = _MUTATION_TOKENS[int(rng.integers(10))]
        lines[i] = " ".join(tok)
    elif op == 3:
        del tok[int(rng.integers(len(tok)))]
        lines[i] = " ".join(tok)
    elif op == 4:
        lines[i] += " 7"
    else:
        j = min(i + 1, len(lines) - 1)
        lines[i], lines[j] = lines[j], lines[i]
    return lines


def test_mutated_decmesh_loads_or_raises_mesh_error():
    """400 seeded line mutations of cube_obstacle's reference decmesh: each loads or
    raises MeshError, never another exception (a bare ValueError among them)."""
    lines = canned_scenario("cube_obstacle", 1).reference.to_text().splitlines()
    rng = np.random.default_rng(2026)
    outcomes = {"loaded": 0, "MeshError": 0}
    for _ in range(400):
        try:
            load_complex("\n".join(_mutated(lines, rng)) + "\n")
            outcomes["loaded"] += 1
        except MeshError:
            outcomes["MeshError"] += 1
    assert outcomes["MeshError"] > 250 and outcomes["loaded"] > 50, outcomes
