"""Oriented simplicial complexes with boundary markers and obstacle carving.

A complex stores one array of p-simplices per degree p = 0..d.  Every simplex
is a sorted tuple of vertex ids and the lists are lexicographically ordered,
so incidence matrices and file dumps are reproducible bit for bit.  The sign
of a face in the incidence matrix is the parity of the deleted position, which
is the sorted-vertex-permutation convention.

Faces are found with array lookups, not per-simplex loops.  A sorted row
(v0, ..., vp) packs into one int64 key, ((v0*nv + v1)*nv + ...)*nv + vp with
nv the number of vertex rows.  The lexsorted list of a degree then has
increasing keys, so :meth:`SimplicialComplex.lookup` is one ``searchsorted``.
The keys of degree p fit in int64 only while nv**(p+1) < 2**63: at most
2097151 vertices for triangles and 55108 for tetrahedra.  A lookup past that
limit raises :class:`MeshError`; no degree-d lookup is needed to build,
validate, carve or assemble a d-dimensional complex.

Complexes are immutable after construction: all derived quantities (packed
keys, per-cell face tables, coface counts, boundary facets) are computed once
and cached.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Mapping

import numpy as np

OUTER = "outer"
OBSTACLE = "obstacle"


class MeshError(ValueError):
    """Raised for malformed meshes: dangling faces, bad markers, non-manifold carves."""


def faces_of(rows: np.ndarray, k: int) -> np.ndarray:
    """(n, C(m, k), k) array of the k-vertex faces of each m-vertex row.

    Faces come in ``itertools.combinations`` order, so face j of an m-vertex
    row omits vertex m-1-j when k = m-1.
    """
    return rows[:, list(combinations(range(rows.shape[1]), k))]


def _canonical_rows(rows: np.ndarray, unique: bool = False) -> np.ndarray:
    """Sort each row ascending, then lexsort the rows; ``unique`` drops repeats.

    Raises on a row with a repeated vertex.
    """
    rows = np.asarray(rows, dtype=np.int64)
    rows = np.sort(rows.reshape(-1, rows.shape[-1]), axis=1)
    if rows.shape[1] > 1 and np.any(rows[:, :-1] == rows[:, 1:]):
        bad = int(np.nonzero(np.any(rows[:, :-1] == rows[:, 1:], axis=1))[0][0])
        raise MeshError(f"degenerate simplex with repeated vertex: row {bad}")
    rows = rows[np.lexsort(rows.T[::-1])]
    if unique and len(rows):
        keep = np.ones(len(rows), dtype=bool)
        keep[1:] = np.any(rows[1:] != rows[:-1], axis=1)
        rows = rows[keep]
    return rows


@dataclass
class SimplicialComplex:
    """Simplicial complex of dimension ``dim`` embedded in R^ambient.

    ``cell_coords`` optionally overrides per-cell vertex positions; it is used
    by glued (quotient) complexes where a shared vertex id carries different
    coordinates on the two sides of the gluing locus.  All metric assembly is
    per top-cell and reads coordinates through :meth:`cell_vertex_coords`.
    """

    dim: int
    vertices: np.ndarray
    simplices: dict[int, np.ndarray]
    regions: list[str]
    boundary_markers: dict[str, np.ndarray]
    cell_coords: np.ndarray | None = None
    _keys: dict[int, np.ndarray] = field(default_factory=dict, repr=False)
    _face_ids: dict[int, np.ndarray] = field(default_factory=dict, repr=False)
    _bfacets: np.ndarray | None = field(default=None, repr=False)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_top_cells(
        cls,
        vertices: np.ndarray,
        cells: np.ndarray,
        regions: Iterable[str] | None = None,
        cell_coords: np.ndarray | None = None,
    ) -> "SimplicialComplex":
        """Build the full complex generated by top-dimensional cells.

        All proper faces are enumerated, and boundary facets (one coface) get
        the ``OUTER`` marker.
        """
        vertices = np.asarray(vertices, dtype=float)
        cells = np.asarray(cells, dtype=np.int64)
        dim = cells.shape[1] - 1
        cells_sorted = np.sort(cells, axis=1)
        order = np.lexsort(cells_sorted.T[::-1])
        cells_sorted = cells_sorted[order]
        regions = list(regions) if regions is not None else [""] * len(cells)
        regions = [regions[i] for i in order]
        if cell_coords is not None:
            # coordinates follow the vertex sort of each cell
            perm = np.argsort(cells[order], axis=1)
            cell_coords = np.take_along_axis(
                np.asarray(cell_coords, dtype=float)[order], perm[:, :, None], axis=1
            )

        simplices: dict[int, np.ndarray] = {dim: cells_sorted}
        for p in range(dim - 1, 0, -1):
            simplices[p] = _canonical_rows(faces_of(simplices[p + 1], p + 1), unique=True)
        # 0-simplices are the vertices actually used by the cells, so a carved
        # complex is literally a sub-list of its reference in every degree
        simplices[0] = np.unique(cells_sorted).reshape(-1, 1)

        cplx = cls(
            dim=dim,
            vertices=vertices,
            simplices=simplices,
            regions=regions,
            boundary_markers={},
            cell_coords=cell_coords,
        )
        bf = cplx.boundary_facets()
        if len(bf):
            cplx.boundary_markers = {OUTER: bf.copy()}
        cplx.validate()
        return cplx

    # -- cached lookups ------------------------------------------------------

    def n(self, p: int) -> int:
        return len(self.simplices[p])

    def _pack(self, p: int, rows: np.ndarray) -> np.ndarray:
        """One int64 key per sorted row of p+1 vertex ids."""
        nv = len(self.vertices)
        top = np.iinfo(np.int64).max
        if nv ** (p + 1) > top:
            limit = int(2 ** (63 / (p + 1)))
            while limit ** (p + 1) > top:
                limit -= 1
            raise MeshError(
                f"{nv} vertices overflow the int64 keys of {p}-simplices "
                f"(limit {limit} vertices)"
            )
        key = np.zeros(len(rows), dtype=np.int64)
        for col in rows.T:
            key = key * nv + col
        return key

    def _find(self, p: int, rows) -> tuple[np.ndarray, np.ndarray]:
        """Positions of the rows in ``simplices[p]`` and a mask of rows found."""
        rows = np.sort(np.asarray(rows, dtype=np.int64).reshape(-1, p + 1), axis=1)
        if p not in self._keys:
            self._keys[p] = self._pack(p, self.simplices[p])
        table, keys = self._keys[p], self._pack(p, rows)
        pos = np.searchsorted(table, keys)
        found = (pos < len(table)) & (rows[:, 0] >= 0) & (rows[:, -1] < len(self.vertices))
        found[found] = table[pos[found]] == keys[found]
        return pos, found

    def lookup(self, p: int, rows) -> np.ndarray:
        """Indices of p-simplices given as rows of vertex ids (in any order)."""
        pos, found = self._find(p, rows)
        if not found.all():
            bad = np.asarray(rows).reshape(-1, p + 1)[np.argmin(found)]
            raise MeshError(f"{p}-simplex {tuple(map(int, bad))} is not in the complex")
        return pos

    def face_ids(self, p: int) -> np.ndarray:
        """(n_cells, C(d+1, p+1)) indices of each top cell's p-faces.

        Columns follow :func:`faces_of` (``combinations``) order.  The table is
        cached and read-only.
        """
        if p not in self._face_ids:
            cells = self.simplices[self.dim]
            if p == self.dim:
                ids = np.arange(len(cells)).reshape(-1, 1)
            else:
                ids = self.lookup(p, faces_of(cells, p + 1)).reshape(len(cells), -1)
            ids.flags.writeable = False
            self._face_ids[p] = ids
        return self._face_ids[p]

    def coface_counts(self, p: int) -> np.ndarray:
        """Number of (p+1)-cofaces of each p-simplex."""
        faces = faces_of(self.simplices[p + 1], p + 1)
        return np.bincount(self.lookup(p, faces), minlength=self.n(p))

    def boundary_facets(self) -> np.ndarray:
        """Indices of (d-1)-simplices with exactly one coface."""
        if self._bfacets is None:
            counts = self.coface_counts(self.dim - 1)
            if np.any(counts > 2):
                bad = int(np.nonzero(counts > 2)[0][0])
                raise MeshError(
                    f"facet {tuple(map(int, self.simplices[self.dim - 1][bad]))} has "
                    f"{counts[bad]} cofaces; complex is not a manifold"
                )
            self._bfacets = np.nonzero(counts == 1)[0]
        return self._bfacets

    def boundary_subsimplices(self, p: int) -> np.ndarray:
        """Indices of p-simplices contained in some boundary facet."""
        d = self.dim
        bf = self.simplices[d - 1][self.boundary_facets()]
        if p == d - 1:
            return self.boundary_facets().copy()
        if p >= d or len(bf) == 0:
            return np.zeros(0, dtype=np.int64)
        return np.unique(self.lookup(p, faces_of(bf, p + 1)))

    def cell_vertex_coords(self) -> np.ndarray:
        """(n_cells, dim+1, ambient) coordinates used for metric assembly."""
        if self.cell_coords is not None:
            return self.cell_coords
        return self.vertices[self.simplices[self.dim]]

    def cell_volumes(self) -> np.ndarray:
        coords = self.cell_vertex_coords()
        e = coords[:, 1:, :] - coords[:, :1, :]
        d = self.dim
        if e.shape[2] != d:
            raise MeshError("ambient dimension must equal complex dimension")
        from math import factorial

        return np.abs(np.linalg.det(e)) / factorial(d)

    def euler_characteristic(self) -> int:
        return int(sum((-1) ** p * self.n(p) for p in range(self.dim + 1)))

    # -- validation ----------------------------------------------------------

    def check_closure(self) -> None:
        """Every face of every stored simplex must itself be stored.

        Coface counting looks faces up by vertex tuple, so this must hold
        before :meth:`boundary_facets` is first called on a parsed complex.
        """
        for p in range(1, self.dim + 1):
            simplices = self.simplices[p]
            faces = faces_of(simplices, p)[:, ::-1].reshape(-1, p)  # face k omits vertex k
            _, found = self._find(p - 1, faces)
            if not found.all():
                j = int(np.argmin(found))
                raise MeshError(
                    f"dangling face: {tuple(map(int, faces[j]))} of "
                    f"{tuple(map(int, simplices[j // (p + 1)]))} not stored"
                )

    def validate(self) -> None:
        d = self.dim
        self.check_closure()
        bf = self.boundary_facets()
        marked = np.zeros(self.n(d - 1), dtype=bool)
        facet_rows = self.simplices[d - 1]
        for marker, facets in self.boundary_markers.items():
            ids, counts = np.unique(np.asarray(facets, dtype=np.int64), return_counts=True)
            if np.any(counts > 1):
                rep = int(ids[np.argmax(counts > 1)])
                raise MeshError(
                    f"marker {marker!r} names facet {tuple(map(int, facet_rows[rep]))} "
                    "more than once"
                )
            if not np.isin(ids, bf).all():
                raise MeshError(f"marker {marker!r} contains non-boundary facets")
            if marked[ids].any():
                raise MeshError(f"marker {marker!r} overlaps another marker")
            marked[ids] = True
        if np.count_nonzero(marked) != len(bf):
            raise MeshError("boundary markers do not cover all boundary facets")
        if len(self.regions) != self.n(d):
            raise MeshError("one region tag per top simplex required")

    # -- text format ----------------------------------------------------------

    def to_text(self) -> str:
        """The decmesh text; every section is formatted from ``.tolist()`` rows."""

        def lines(rows: list[list]) -> str:
            return "".join(" ".join(map(repr, row)) + "\n" for row in rows)

        out = io.StringIO()
        out.write("decmesh 1\n")
        out.write(f"dim {self.dim}\n")
        out.write(f"vertices {len(self.vertices)}\n")
        out.write(lines(self.vertices.tolist()))
        for p in range(1, self.dim + 1):
            out.write(f"simplices {p} {self.n(p)}\n")
            out.write(lines(self.simplices[p].tolist()))
        out.write(f"regions {self.n(self.dim)}\n")
        out.write("".join((tag or "-") + "\n" for tag in self.regions))
        out.write("boundary\n")
        facets = self.simplices[self.dim - 1]
        for marker in sorted(self.boundary_markers):
            ids = np.sort(np.asarray(self.boundary_markers[marker], dtype=np.int64))
            rows = facets[ids].tolist()
            out.write("".join(f"{marker} {' '.join(map(repr, row))}\n" for row in rows))
        out.write("end\n")
        return out.getvalue()

    def metadata(self) -> dict:
        """Canonical JSON-able summary used for golden tests."""
        comps = boundary_components(self)
        return {
            "dim": self.dim,
            "counts": {str(p): self.n(p) for p in range(self.dim + 1)},
            "euler_characteristic": self.euler_characteristic(),
            "boundary_components": [
                {"marker": m, "facets": len(f)} for m, f in comps
            ],
            "regions": sorted(set(t for t in self.regions if t)),
        }

    def metadata_json(self) -> str:
        return json.dumps(self.metadata(), sort_keys=True, indent=1)


# -- loading -------------------------------------------------------------------


def load_complex(source: str | bytes | io.IOBase, fmt: str = "decmesh") -> SimplicialComplex:
    """Parse a mesh from text.  ``fmt`` is ``decmesh`` or ``tetgen``.

    For tetgen, ``source`` must be the path prefix of the ``.node``/``.ele``
    pair (optionally with a ``.face`` file carrying boundary markers).
    """
    if fmt == "tetgen":
        return _load_tetgen(str(source))
    if fmt != "decmesh":
        raise MeshError(f"unsupported mesh format: {fmt!r}")
    if isinstance(source, bytes):
        text = source.decode()
    elif isinstance(source, str):
        text = source
    else:
        text = source.read()
        if isinstance(text, bytes):
            text = text.decode()
    return _parse_decmesh(text)


def _parse_decmesh(text: str) -> SimplicialComplex:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    pos = 0

    def take() -> str:
        nonlocal pos
        if pos >= len(lines):
            raise MeshError("unexpected end of mesh file")
        ln = lines[pos]
        pos += 1
        return ln

    header = take()
    if not header.startswith("decmesh"):
        raise MeshError("not a decmesh file")
    dim = int(take().split()[1])
    nv = int(take().split()[1])
    vertices = np.array([[float(x) for x in take().split()] for _ in range(nv)])
    simplices: dict[int, np.ndarray] = {}
    regions: list[str] | None = None
    markers_raw: list[tuple[str, tuple]] = []
    while pos < len(lines):
        ln = take()
        tok = ln.split()
        if tok[0] == "simplices":
            p, n = int(tok[1]), int(tok[2])
            rows = np.array(
                [[int(x) for x in take().split()] for _ in range(n)], dtype=np.int64
            ).reshape(n, p + 1)
            if np.any(rows < 0) or np.any(rows >= nv):
                raise MeshError(f"simplex vertex id out of range in degree {p}")
            simplices[p] = _canonical_rows(rows)
            if len(_canonical_rows(rows, unique=True)) != n:
                raise MeshError(f"duplicate simplex in degree {p}")
        elif tok[0] == "regions":
            n = int(tok[1])
            regions = [("" if t == "-" else t) for t in (take() for _ in range(n))]
        elif tok[0] == "boundary":
            while pos < len(lines) and lines[pos] != "end":
                parts = take().split()
                markers_raw.append((parts[0], tuple(sorted(int(x) for x in parts[1:]))))
        elif tok[0] == "end":
            break
        else:
            raise MeshError(f"unknown section {tok[0]!r}")
    for p in range(1, dim + 1):
        if p not in simplices:
            raise MeshError(f"missing simplices of degree {p}")
    simplices[0] = np.unique(simplices[dim]).reshape(-1, 1)
    cplx = SimplicialComplex(
        dim=dim,
        vertices=vertices,
        simplices=simplices,
        regions=regions if regions is not None else [""] * len(simplices[dim]),
        boundary_markers={},
        cell_coords=None,
    )
    cplx.check_closure()
    bf = cplx.boundary_facets()
    if markers_raw:
        # a row of the wrong length gets negative ids, which are never found
        rows = [v if len(v) == dim else (-1,) * dim for _, v in markers_raw]
        ids, found = cplx._find(dim - 1, rows)
        if not found.all():
            marker, verts = markers_raw[int(np.argmin(found))]
            raise MeshError(f"marker {marker!r} names unknown facet {verts}")
        names = np.array([m for m, _ in markers_raw], dtype=object)
        cplx.boundary_markers = {m: np.sort(ids[names == m]) for m in dict.fromkeys(names)}
    elif len(bf):
        cplx.boundary_markers = {OUTER: bf.copy()}
    cplx.validate()
    return cplx


def _load_tetgen(prefix: str) -> SimplicialComplex:
    def rows(path: str) -> list[list[str]]:
        with open(path) as fh:
            out = []
            for ln in fh:
                ln = ln.split("#")[0].strip()
                if ln:
                    out.append(ln.split())
            return out

    node = rows(prefix + ".node")
    nv, ndim = int(node[0][0]), int(node[0][1])
    base = int(node[1][0])
    vertices = np.array([[float(x) for x in r[1 : 1 + ndim]] for r in node[1 : 1 + nv]])
    ele = rows(prefix + ".ele")
    nt, npc = int(ele[0][0]), int(ele[0][1])
    has_attr = len(ele[1]) > 1 + npc
    cells = np.array(
        [[int(x) - base for x in r[1 : 1 + npc]] for r in ele[1 : 1 + nt]], dtype=np.int64
    )
    regions = [f"r{int(float(r[1 + npc]))}" if has_attr else "" for r in ele[1 : 1 + nt]]
    return SimplicialComplex.from_top_cells(vertices, cells, regions)


# -- carving -------------------------------------------------------------------


@dataclass
class ObstacleScenario:
    """A matched pair: reference complex Z0 and the carved complex sharing its DOFs."""

    reference: SimplicialComplex
    carved: SimplicialComplex
    obstacle_tags: frozenset
    injections: dict[int, np.ndarray]

    @property
    def has_obstacle(self) -> bool:
        return self.carved.n(self.carved.dim) < self.reference.n(self.reference.dim)


def carve_obstacle(reference: SimplicialComplex, obstacle_tags: Iterable[str]) -> ObstacleScenario:
    """Remove the interior of the tagged region and mark the fresh boundary.

    The carved complex keeps the reference vertex array so that simplices are
    literally sub-lists of the reference ones; per-degree injection maps are
    index arrays into the reference simplex lists.

    Precondition: the closed obstacle region (every vertex of a removed cell)
    must not meet the hull of the reference complex (the vertices of its
    boundary facets).  Contact at a facet, a ridge or a single vertex raises
    :class:`MeshError`; a point contact would pinch the carved boundary at a
    vertex, which the ridge-based manifold check cannot see.
    """
    tags = frozenset(obstacle_tags)
    d = reference.dim
    removed = np.array([t in tags for t in reference.regions], dtype=bool)
    keep_cells = np.nonzero(~removed)[0]
    if len(keep_cells) == reference.n(d):
        injections = {p: np.arange(reference.n(p), dtype=np.int64) for p in range(d + 1)}
        return ObstacleScenario(reference, reference, tags, injections)
    if len(keep_cells) == 0:
        raise MeshError("obstacle tags cover the whole complex")
    # the closed obstacle must stay clear of the reference hull (see Precondition)
    hull = reference.simplices[d - 1][reference.boundary_facets()]
    touching = np.intersect1d(reference.simplices[d][removed], hull)
    if len(touching):
        v = int(touching[0])
        raise MeshError(
            f"obstacle region touches the outer boundary at vertex {v} "
            f"{tuple(float(x) for x in reference.vertices[v])}"
        )

    cells = reference.simplices[d][keep_cells]
    regions = [reference.regions[i] for i in keep_cells]
    cc = reference.cell_coords[keep_cells] if reference.cell_coords is not None else None
    carved = SimplicialComplex.from_top_cells(
        reference.vertices, cells, regions, cell_coords=cc
    )
    # the kept cells are already sorted rows in lexsorted order, so they keep it
    injections = {p: reference.lookup(p, carved.simplices[p]) for p in range(d)}
    injections[d] = keep_cells

    # markers: inherited where the facet was already boundary in Z0, obstacle otherwise
    names = np.array([*reference.boundary_markers, OBSTACLE], dtype=object)
    code = np.full(reference.n(d - 1), len(names) - 1)
    for j, facets in enumerate(reference.boundary_markers.values()):
        code[facets] = j
    bf = carved.boundary_facets()
    labels = names[code[injections[d - 1][bf]]]
    carved.boundary_markers = {m: bf[labels == m] for m in dict.fromkeys(labels)}
    carved.validate()
    _check_manifold_boundary(carved)
    return ObstacleScenario(reference, carved, tags, injections)


def _check_manifold_boundary(cplx: SimplicialComplex) -> None:
    """Every boundary ridge must lie in exactly two boundary facets."""
    d = cplx.dim
    if d < 2:
        return
    bf = cplx.simplices[d - 1][cplx.boundary_facets()]
    ridges, counts = np.unique(faces_of(bf, d - 1).reshape(-1, d - 1), axis=0, return_counts=True)
    if np.any(counts != 2):
        bad = ridges[np.argmax(counts != 2)]
        raise MeshError(f"non-manifold carve boundary at ridge {tuple(map(int, bad))}")


def boundary_components(cplx: SimplicialComplex) -> list[tuple[str, np.ndarray]]:
    """Connected components of the boundary facet graph with their marker."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    d = cplx.dim
    bf = cplx.boundary_facets()
    nb = len(bf)
    marker_of = np.full(cplx.n(d - 1), "?", dtype=object)
    for marker, fs in cplx.boundary_markers.items():
        marker_of[fs] = marker
    # facets are adjacent when they share a ridge; in 1D all boundary points share the empty one
    if d == 1:
        ridges, n_ridges = np.zeros((nb, 1), dtype=np.int64), 1
    else:
        ridges = cplx.lookup(d - 2, faces_of(cplx.simplices[d - 1][bf], d - 1)).reshape(nb, d)
        n_ridges = cplx.n(d - 2)
    rows = np.repeat(np.arange(nb), ridges.shape[1])
    inc = sp.csr_matrix((np.ones(ridges.size), (rows, ridges.ravel())), shape=(nb, n_ridges))
    n_comp, label = connected_components(inc @ inc.T, directed=False)
    comps = []
    for c in range(n_comp):
        comp = bf[label == c]
        comps.append(("+".join(sorted(set(marker_of[comp]))), comp))
    comps.sort(key=lambda mc: (mc[0], mc[1][0]))
    return comps


# -- vertex identification (gluing) --------------------------------------------


def glue_vertices(cplx: SimplicialComplex, vmap: Mapping[int, int]) -> SimplicialComplex:
    """Quotient the complex by a vertex identification map.

    Top cells keep their original geometry through ``cell_coords``, so the
    glued complex is assembled as two isometric half-neighbourhoods along the
    identification locus.  The map must be injective on its domain, must not
    create degenerate cells, and domain and range must be disjoint.
    """
    dom = set(int(k) for k in vmap)
    rng = set(int(v) for v in vmap.values())
    if dom & rng:
        raise MeshError("gluing map domain and range overlap")
    if len(rng) != len(dom):
        raise MeshError("gluing map is not injective")
    d = cplx.dim
    old_cells = cplx.simplices[d]
    coords = cplx.cell_vertex_coords().copy()
    mapped = old_cells.copy()
    lut = np.arange(len(cplx.vertices), dtype=np.int64)
    for k, v in vmap.items():
        lut[int(k)] = int(v)
    mapped = lut[mapped]
    if np.any(np.sort(mapped, axis=1)[:, :-1] == np.sort(mapped, axis=1)[:, 1:]):
        raise MeshError("gluing collapses a cell")

    used = np.unique(mapped)
    compact = -np.ones(len(cplx.vertices), dtype=np.int64)
    compact[used] = np.arange(len(used))
    new_cells = compact[mapped]
    new_vertices = cplx.vertices[used]
    return SimplicialComplex.from_top_cells(
        new_vertices, new_cells, cplx.regions, cell_coords=coords
    )


def orientable(cplx: SimplicialComplex) -> bool:
    """Check for a consistent orientation of the top cells (sign propagation)."""
    d = cplx.dim
    fids = cplx.face_ids(d - 1)
    inc = (-1) ** (d - np.arange(d + 1))  # face j omits vertex d - j
    # the cofaces of facet f sit at flat slots order[start[f]:start[f + 1]]
    order = np.argsort(fids.ravel(), kind="stable")
    start = np.searchsorted(fids.ravel()[order], np.arange(cplx.n(d - 1) + 1))
    sign = np.zeros(len(fids), dtype=np.int64)
    for root in range(len(fids)):
        if sign[root]:
            continue
        sign[root] = 1
        stack = [root]
        while stack:
            c = stack.pop()
            for j, f in enumerate(fids[c]):
                for slot in order[start[f] : start[f + 1]]:
                    c2, j2 = divmod(int(slot), d + 1)
                    if c2 == c:
                        continue
                    want = -sign[c] * inc[j] * inc[j2]
                    if sign[c2] == 0:
                        sign[c2] = want
                        stack.append(c2)
                    elif sign[c2] != want:
                        return False
    return True
