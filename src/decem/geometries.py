"""Canned obstacle geometries on structured tetrahedral meshes.

All box geometries live on a Freudenthal (6 tets per cube) grid with integer
physical extents; obstacle regions are defined by predicates on cube centres
in physical coordinates, so doubling the resolution refines the same physical
arrangement and leaves every topological invariant unchanged.

The shell geometries (concentric spheres) use a spherified-cube construction:
a Freudenthal core cube, then radial prism layers whose vertex layers sit
exactly on spheres.  Prisms are tetrahedralised by the pulling rule (cone from
the globally smallest vertex id), which is conforming across all shared faces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import (
    OBSTACLE,
    MeshError,
    ObstacleScenario,
    SimplicialComplex,
    boundary_components,
    carve_obstacle,
    faces_of,
    glue_vertices,
)

_FREUDENTHAL_PERMS = [
    (0, 1, 2),
    (0, 2, 1),
    (1, 0, 2),
    (1, 2, 0),
    (2, 0, 1),
    (2, 1, 0),
]


def _voxel_corners(nx: int, ny: int, nz: int) -> np.ndarray:
    """(nx*ny*nz, 3) integer low corners of the voxels of a grid, in (i, j, k) C order."""
    return np.indices((nx, ny, nz)).reshape(3, -1).T


def _kuhn_tets(corners: np.ndarray, ny: int, nz: int, flip: np.ndarray) -> np.ndarray:
    """(6 * len(corners), 4) vertex ids of the Freudenthal tets of each voxel.

    Tet t of a voxel walks from its low corner along one unit step per axis,
    in the order of ``_FREUDENTHAL_PERMS[t]``, on a grid of (ny+1)*(nz+1)
    vertices per x-layer.  A voxel with ``flip`` set walks from its (i+1, j, k)
    corner with the x step reversed: the x-reflected Kuhn subdivision.
    """
    walks = np.zeros((6, 4, 3), dtype=np.int64)  # walks[t, s]: offset of walk vertex s
    for t, perm in enumerate(_FREUDENTHAL_PERMS):
        for s, ax in enumerate(perm):
            walks[t, s + 1 :, ax] = 1
    pts = corners[:, None, None, :] + walks[None]
    pts[..., 0] += flip[:, None, None] * (1 - 2 * walks[None, ..., 0])
    return ((pts[..., 0] * (ny + 1) + pts[..., 1]) * (nz + 1) + pts[..., 2]).reshape(-1, 4)


def box_complex(
    shape: tuple[int, int, int],
    res: int = 1,
    tag_fn=None,
    mirror_x: float | None = None,
) -> SimplicialComplex:
    """Freudenthal mesh of the box [0, sx] x [0, sy] x [0, sz] with ``res`` cells per unit.

    ``tag_fn`` is called once per voxel centre, in (i, j, k) C order, and its
    tag goes to the voxel's 6 tets.  Cubes whose centre lies beyond
    ``mirror_x`` get the x-reflected Kuhn subdivision.  The two patterns are
    conforming across the plane x=mirror_x (an x-flip leaves y-z face
    diagonals unchanged), and the surface triangulation of any voxel region on
    the far side is the exact mirror image of the corresponding region on the
    near side, which is what the wormhole gluing map needs.
    """
    sx, sy, sz = shape
    nx, ny, nz = sx * res, sy * res, sz * res
    h = 1.0 / res

    ii, jj, kk = np.meshgrid(
        np.arange(nx + 1), np.arange(ny + 1), np.arange(nz + 1), indexing="ij"
    )
    vertices = np.stack([ii.ravel() * h, jj.ravel() * h, kk.ravel() * h], axis=1)

    corners = _voxel_corners(nx, ny, nz)
    centres = (corners + 0.5) * h
    tags = [tag_fn(c) for c in centres] if tag_fn is not None else [""] * len(corners)
    flip = centres[:, 0] > (mirror_x if mirror_x is not None else np.inf)
    cells = _kuhn_tets(corners, ny, nz, flip)
    regions = [tag for tag in tags for _ in _FREUDENTHAL_PERMS]
    return SimplicialComplex.from_top_cells(vertices, cells, regions)


def box2d_complex(shape: tuple[int, int], res: int = 1, tag_fn=None) -> SimplicialComplex:
    sx, sy = shape
    nx, ny = sx * res, sy * res
    h = 1.0 / res

    def vid(i, j):
        return i * (ny + 1) + j

    ii, jj = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1), indexing="ij")
    vertices = np.stack([ii.ravel() * h, jj.ravel() * h], axis=1)
    cells, regions = [], []
    for i in range(nx):
        for j in range(ny):
            tag = tag_fn(((i + 0.5) * h, (j + 0.5) * h)) if tag_fn else ""
            cells.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)])
            cells.append([vid(i, j), vid(i, j + 1), vid(i + 1, j + 1)])
            regions += [tag, tag]
    return SimplicialComplex.from_top_cells(vertices, np.array(cells), regions)


def chain_complex(n: int) -> SimplicialComplex:
    """1D mesh of the unit interval; the degenerate test case for spectral machinery."""
    vertices = np.linspace(0.0, 1.0, n + 1).reshape(-1, 1)
    cells = np.array([[i, i + 1] for i in range(n)], dtype=np.int64)
    return SimplicialComplex.from_top_cells(vertices, cells, [""] * n)


# -- voxel region helpers -------------------------------------------------------


def _in_box(c, box) -> bool:
    return all(box[2 * a] < c[a] < box[2 * a + 1] for a in range(3))


def _in_ball(c, centre, r) -> bool:
    return sum((c[a] - centre[a]) ** 2 for a in range(3)) < r * r


def _ring_xy(c, lo, hi, hole_lo, hole_hi, zlo, zhi) -> bool:
    if not (zlo < c[2] < zhi):
        return False
    if not (lo < c[0] < hi and lo < c[1] < hi):
        return False
    return not (hole_lo < c[0] < hole_hi and hole_lo < c[1] < hole_hi)


def _ring_xz(c, xlo, xhi, zlo, zhi, hxlo, hxhi, hzlo, hzhi, ylo, yhi) -> bool:
    if not (ylo < c[1] < yhi):
        return False
    if not (xlo < c[0] < xhi and zlo < c[2] < zhi):
        return False
    return not (hxlo < c[0] < hxhi and hzlo < c[2] < hzhi)


# -- canned geometries ----------------------------------------------------------


@dataclass
class CannedGeometry:
    name: str
    description: str
    expected_h1: int | None
    expected_h2: int | None
    build: object  # callable(res) -> (SimplicialComplex, set[str])


def _balls_builder(n_balls: int):
    shape = (5 * n_balls + 3, 6, 6)
    centres = [(4.0 + 5 * k, 3.0, 3.0) for k in range(n_balls)]

    def build(res: int):
        def tag(c):
            for k, ctr in enumerate(centres):
                if _in_ball(c, ctr, 1.2):
                    return f"ball{k}"
            return ""

        cplx = box_complex(shape, res, tag)
        return cplx, {f"ball{k}" for k in range(n_balls)}

    return build


def _solid_torus_build(res: int):
    def tag(c):
        return "ring" if _ring_xy(c, 1, 6, 2, 5, 2, 3) else ""

    return box_complex((7, 7, 5), res, tag), {"ring"}


def _hopf_link_build(res: int):
    def tag(c):
        if _ring_xy(c, 1, 6, 2, 5, 3, 4):
            return "ringA"
        if _ring_xz(c, 3, 8, 1, 6, 4, 7, 2, 5, 3, 4):
            return "ringB"
        return ""

    return box_complex((9, 7, 7), res, tag), {"ringA", "ringB"}


def _wormhole_build(res: int):
    """Box with two mirror-image balls glued into a wormhole plus one obstacle ball."""
    c1, c2, co = (3.0, 3.0, 3.0), (9.0, 3.0, 3.0), (6.0, 3.0, 3.0)

    def tag(c):
        if _in_ball(c, c1, 1.2):
            return "glue1"
        if _in_ball(c, c2, 1.2):
            return "glue2"
        if _in_ball(c, co, 1.2):
            return "obstacle_ball"
        return ""

    box = box_complex((12, 6, 6), res, tag, mirror_x=0.5 * (c1[0] + c2[0]))
    pierced = carve_obstacle(box, {"glue1", "glue2"}).carved

    # boundary spheres of the two removed balls, identified by proximity
    comps = boundary_components(pierced)
    facets = pierced.simplices[2]
    sphere_verts = {1: [], 2: []}
    for marker, comp in comps:
        if marker != OBSTACLE:
            continue
        verts = np.unique(facets[comp])
        probe = pierced.vertices[verts[0]]
        key = 1 if abs(probe[0] - c1[0]) < abs(probe[0] - c2[0]) else 2
        sphere_verts[key].append(verts)
    if not sphere_verts[1] or not sphere_verts[2]:
        raise MeshError("wormhole construction did not produce two glue spheres")

    h = 1.0 / res
    mirror_x = c1[0] + c2[0]
    src = np.unique(np.concatenate(sphere_verts[2]))
    dst = np.unique(np.concatenate(sphere_verts[1]))
    x, y, z = pierced.vertices[src].T
    image = np.round(np.column_stack([mirror_x - x, y, z]) / h).astype(int)
    grid = np.round(pierced.vertices[dst] / h).astype(int)
    # hit[i, j]: sphere-1 vertex j sits at the mirror image of sphere-2 vertex i
    hit = np.all(image[:, None, :] == grid[None, :, :], axis=2)
    if np.any(hit.sum(axis=1) != 1):
        raise MeshError("wormhole glue map does not match the opposite sphere")
    image_of = dst[hit.argmax(axis=1)]
    _check_glue_facets(pierced, comps, src, image_of)
    vmap = dict(zip(src.tolist(), image_of.tolist()))
    glued = glue_vertices(pierced, vmap)
    return glued, {"obstacle_ball"}


def _check_glue_facets(pierced, comps, src: np.ndarray, image_of: np.ndarray) -> None:
    """Reject a glue that identifies two triangles off the glue spheres.

    A voxel sphere can have notches where a triangle that is not a sphere
    facet has all three vertices on the sphere.  When the glue maps such a
    triangle of sphere 2 onto one of sphere 1, the glued facet gets 4 cofaces.
    """
    facets = pierced.simplices[2]
    on_sphere = np.zeros(len(facets), dtype=bool)
    on_sphere[np.concatenate([c for m, c in comps if m == OBSTACLE])] = True
    lut = np.arange(len(pierced.vertices))
    lut[src] = image_of

    def chords(verts):
        return facets[~on_sphere & np.all(np.isin(facets, verts), axis=1)]

    moved, fixed = chords(src), chords(image_of)
    images = np.sort(lut[moved], axis=1)
    same = np.all(images[:, None, :] == fixed[None, :, :], axis=2)
    if same.any():
        i, j = np.argwhere(same)[0]
        at = [tuple(float(x) for x in pierced.vertices[v]) for v in fixed[j]]
        raise MeshError(
            f"wormhole glue (sphere 2 onto sphere 1) maps facet {tuple(map(int, moved[i]))} "
            f"onto facet {tuple(map(int, fixed[j]))} at {at}; neither is a glue-sphere facet "
            "but all their vertices are on the spheres, so the glued facet would have 4 cofaces"
        )


def _concentric_build(res: int):
    return ball_shell_complex(1.0, 4.0, n_core=2 * res, n_layers=4 * res), {"core"}


def _cube_obstacle_build(res: int):
    def tag(c):
        return "cube" if _in_box(c, (1, 2, 1, 2, 1, 2)) else ""

    return box_complex((4, 4, 4), res, tag), {"cube"}


def _box_with_block(shape, block):
    def tag(c):
        return "block" if _in_box(c, block) else ""

    return box_complex(shape, tag_fn=tag), {"block"}


CANNED: dict[str, CannedGeometry] = {
    "balls:1": CannedGeometry("balls:1", "one ball carved from a box", 1, 0, _balls_builder(1)),
    "balls:2": CannedGeometry("balls:2", "two disjoint balls", 2, 0, _balls_builder(2)),
    "balls:3": CannedGeometry("balls:3", "three disjoint balls", 3, 0, _balls_builder(3)),
    "solid_torus": CannedGeometry(
        "solid_torus", "one solid ring carved from a box", 1, 1, _solid_torus_build
    ),
    "hopf_link": CannedGeometry(
        "hopf_link", "two linked solid rings", 2, 2, _hopf_link_build
    ),
    "wormhole_obstacle": CannedGeometry(
        "wormhole_obstacle", "wormhole background with one ball obstacle", 2, 1, _wormhole_build
    ),
    "concentric_spheres": CannedGeometry(
        "concentric_spheres",
        "spherical shell between radii 1 and 4",
        1,
        0,
        _concentric_build,
    ),
    "cube_obstacle": CannedGeometry(
        "cube_obstacle", "cube obstacle in a cube box (refinement friendly)", 1, 0,
        _cube_obstacle_build,
    ),
}


def canned_scenario(name: str, res: int = 1) -> ObstacleScenario:
    if name not in CANNED:
        raise KeyError(f"unknown canned geometry {name!r}; see list_scenarios()")
    reference, tags = CANNED[name].build(res)
    return carve_obstacle(reference, tags)


def list_scenarios() -> list[dict]:
    out = []
    for name in sorted(CANNED):
        g = CANNED[name]
        out.append(
            {
                "name": g.name,
                "description": g.description,
                "expected_h1": g.expected_h1,
                "expected_h2": g.expected_h2,
            }
        )
    return out


# -- spherified cube shells ------------------------------------------------------


def _pull_prism(bottom: tuple[int, int, int], top: tuple[int, int, int]) -> list[list[int]]:
    """Tetrahedralise a prism by coning from its smallest global vertex id."""
    a, b = list(bottom), list(top)
    if min(b) < min(a):
        a, b = b, a
    r = int(np.argmin(a))
    a = a[r:] + a[:r]
    b = b[r:] + b[:r]
    apex = a[0]
    tets = [[apex, b[0], b[1], b[2]]]
    quad = [a[1], a[2], b[2], b[1]]
    q = int(np.argmin(quad))
    quad = quad[q:] + quad[:q]
    for t in ([quad[0], quad[1], quad[2]], [quad[0], quad[2], quad[3]]):
        if apex not in t:
            tets.append([apex] + t)
        else:  # apex on the quad can only happen for degenerate input
            raise MeshError("degenerate prism in shell construction")
    return tets


def ball_shell_complex(
    r_in: float,
    r_out: float,
    n_core: int,
    n_layers: int,
) -> SimplicialComplex:
    """Ball of radius r_out, with the region inside r_in tagged ``core``.

    The core is a cube of ``n_core`` cells per side.  Vertex layers sit
    exactly on spheres; the ``n_layers`` radii between r_in and r_out are
    geometrically graded.
    """
    c = 0.5 * r_in
    n = n_core
    h = 2 * c / n

    ii, jj, kk = np.meshgrid(
        np.arange(n + 1), np.arange(n + 1), np.arange(n + 1), indexing="ij"
    )
    core_vertices = np.stack(
        [ii.ravel() * h - c, jj.ravel() * h - c, kk.ravel() * h - c], axis=1
    )
    core_cells = _kuhn_tets(_voxel_corners(n, n, n), n, n, np.zeros(n**3, dtype=bool))

    # boundary triangles of the core: the faces of exactly one tetrahedron
    faces = faces_of(np.sort(core_cells, axis=1), 3).reshape(-1, 3)
    tris, counts = np.unique(faces, axis=0, return_counts=True)
    btris = tris[counts == 1]
    bverts = np.unique(btris)
    rays = core_vertices[bverts]
    rays = rays / np.linalg.norm(rays, axis=1, keepdims=True)

    radii = list(
        r_in * (r_out / r_in) ** (np.arange(1, n_layers + 1) / n_layers)
    )
    radii = sorted(set(round(r, 12) for r in ([r_in] + radii)))
    if abs(radii[-1] - r_out) > 1e-9:
        radii.append(r_out)

    nv_core = len(core_vertices)
    nb = len(bverts)
    layers = [None]  # layer 0 = core boundary vertices themselves
    all_vertices = [core_vertices]
    for ell, rho in enumerate(radii):
        all_vertices.append(rays * rho)
        layers.append(nv_core + ell * nb)
    vertices = np.vstack(all_vertices)

    bpos = np.searchsorted(bverts, btris)  # triangle vertices as positions in bverts

    def layer_ids(ell: int) -> np.ndarray:
        return btris if ell == 0 else layers[ell] + bpos

    tet_list = [list(t) for t in core_cells]
    regions = ["core"] * len(core_cells)
    n_lay = len(radii)
    for ell in range(n_lay):
        inside_core = ell == 0  # prisms between the cube surface and the r_in sphere
        for bottom, top in zip(layer_ids(ell).tolist(), layer_ids(ell + 1).tolist()):
            for tet in _pull_prism(bottom, top):
                tet_list.append(tet)
                regions.append("core" if inside_core else "")
    return SimplicialComplex.from_top_cells(
        vertices, np.array(tet_list, dtype=np.int64), regions
    )


def qft_box_scenario() -> ObstacleScenario:
    """Small box with a 2x2x2 cube obstacle; the workhorse for field identities."""
    ref, tags = _box_with_block((6, 6, 6), (2, 4, 2, 4, 2, 4))
    return carve_obstacle(ref, tags)


def stress_box_scenario() -> ObstacleScenario:
    """Box with a single-cell obstacle, leaving room for decay profiles."""
    ref, tags = _box_with_block((7, 7, 7), (3, 4, 3, 4, 3, 4))
    return carve_obstacle(ref, tags)


def empty_box_scenario(shape: tuple[int, int, int]) -> ObstacleScenario:
    ref = box_complex(shape)
    return carve_obstacle(ref, set())
