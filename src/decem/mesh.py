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
keys, per-cell face tables, coface counts, boundary facets, isometries) are
computed once and cached.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from itertools import combinations, permutations, product
from math import factorial
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


# A vertex matches the image of another under a candidate isometry when they lie
# within this fraction of the shortest edge.  The canned meshes' vertices map exactly
# onto each other, and reflecting a coordinate about the box centre rounds it by
# about 1e-16 of its size.  A looser match would admit near-symmetries under which
# the mass matrices are not invariant to the 1e-12 that ``DecOperators`` checks.
ISOMETRY_RTOL = 1e-13


@dataclass(eq=False)
class Isometry:
    """x -> centre + A (x - centre), A a signed axis permutation, as a map of a
    complex onto itself.  ``maps[p]`` is (image, sign): p-simplex i goes to p-simplex
    image[i], and sign[i] = +-1 compares the image's sorted-vertex orientation with
    that of the mapped vertices."""

    A: np.ndarray
    maps: dict[int, tuple[np.ndarray, np.ndarray]]


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque, sortable key per row of integer-valued floats."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]


def _sort_parity(rows: np.ndarray) -> np.ndarray:
    """+-1 per row: the parity of the permutation that sorts it (distinct entries)."""
    sign = np.ones(len(rows), dtype=np.int64)
    for i, j in combinations(range(rows.shape[1]), 2):
        sign *= np.where(rows[:, i] < rows[:, j], 1, -1)
    return sign


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
    _isometries: list[Isometry] | None = field(default=None, repr=False)

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

    def euler_characteristic(self) -> int:
        return int(sum((-1) ** p * self.n(p) for p in range(self.dim + 1)))

    def isometries(self) -> list[Isometry]:
        """The isometries of the complex, identity first, found on first call and kept.

        The candidates are the 2^d d! signed axis permutations about the centre of
        the used vertices' bounding box.  One is kept when it maps the used vertices
        onto themselves (to ``ISOMETRY_RTOL`` of the shortest edge), every p-simplex
        onto a p-simplex and each boundary marker's facets onto that marker's.  Region
        tags are not compared.  The list is empty for a glued complex (with
        ``cell_coords``), whose vertex coordinates do not give its metric.
        """
        if self._isometries is None:
            self._isometries = [] if self.cell_coords is not None else self._find_isometries()
        return self._isometries

    def _find_isometries(self) -> list[Isometry]:
        d, used = self.dim, self.simplices[0][:, 0]
        ends = self.vertices[self.simplices[1]]
        h = np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1).min()
        X = self.vertices[used]
        X = X - 0.5 * (X.min(axis=0) + X.max(axis=0))
        # vertices are matched by their cells on a grid of h/4 about the centre, then
        # checked against the tolerance: a near-match split by a grid line is missed,
        # which only loses a symmetry
        keys = _row_keys(np.rint(X / (0.25 * h)))
        order = np.argsort(keys)
        keys = keys[order]
        vmap = np.full(len(self.vertices), -1, dtype=np.int64)
        found = []
        for perm in permutations(range(d)):
            for signs in product((1, -1), repeat=d):
                A = np.zeros((d, d))
                A[np.arange(d), perm] = signs
                Y = X @ A.T
                at = np.searchsorted(keys, _row_keys(np.rint(Y / (0.25 * h))))
                near = order[np.minimum(at, len(order) - 1)]
                if np.abs(X[near] - Y).max() > ISOMETRY_RTOL * h:
                    continue
                vmap[used] = used[near]
                maps = {}
                for p in range(d + 1):
                    rows = vmap[self.simplices[p]]
                    pos, hit = self._find(p, rows)
                    if not hit.all():
                        break
                    maps[p] = pos, _sort_parity(rows)
                else:
                    if all(np.array_equal(np.sort(maps[d - 1][0][f]), np.sort(f))
                           for f in self.boundary_markers.values()):
                        found.append(Isometry(A, maps))
        return found

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
    pair; boundary facets get the ``OUTER`` marker.
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


def _numbers(where: str, line: tuple[int, str], kind, tokens: list[str]) -> list:
    """The tokens of a mesh file's ``line`` (its number and text) as ``kind``s.  A
    token that is not one, or an int past 64 bits, raises :class:`MeshError` naming
    ``where`` (a section or a file), the line number and the text."""
    try:
        vals = [kind(x) for x in tokens]
    except ValueError:
        raise MeshError(f"{where}, line {line[0]}: {line[1]!r} is not a row of "
                        f"{kind.__name__}s") from None
    if kind is int and any(abs(v) >= 2**63 for v in vals):
        raise MeshError(f"{where}, line {line[0]}: {line[1]!r} has an int that does "
                        "not fit in 64 bits")
    return vals


def simplex_volumes(coords: np.ndarray) -> np.ndarray:
    """|det E| / d! of each simplex given by its (n, d + 1, d) vertex coordinates, E the
    d x d matrix of edge columns v_i - v_0: the cell volumes of the Whitney assembly
    (``forms._cell_geometry``), which the loaders check before a cell reaches it."""
    e = np.transpose(coords[:, 1:, :] - coords[:, :1, :], (0, 2, 1))
    return np.abs(np.linalg.det(e)) / factorial(coords.shape[2])


def _parse_decmesh(text: str) -> SimplicialComplex:
    """The decmesh text of :meth:`SimplicialComplex.to_text`.  A malformed line raises
    :class:`MeshError` naming its section and its line number."""
    lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), 1)]
    lines = [(i, ln) for i, ln in lines if ln and not ln.startswith("#")]
    pos = 0

    def take() -> tuple[int, str]:
        nonlocal pos
        if pos >= len(lines):
            raise MeshError("unexpected end of mesh file")
        pos += 1
        return lines[pos - 1]

    def row(section: str, kind, width: int) -> list:
        line = take()
        vals = _numbers(section, line, kind, line[1].split())
        if len(vals) != width:
            raise MeshError(f"{section}, line {line[0]}: {line[1]!r} has {len(vals)} "
                            f"entries, not {width}")
        return vals

    def header(line: tuple[int, str], key: str, counts: int, least: int = 0) -> list[int]:
        """The ``counts`` integers after ``key`` on a section's first line."""
        tok = line[1].split()
        vals = _numbers(key, line, int, tok[1:])
        if tok[0] != key or len(vals) != counts or min(vals, default=least) < least:
            raise MeshError(f"{key}, line {line[0]}: {line[1]!r} is not a {key!r} line "
                            f"with {counts} count(s) >= {least}")
        return vals

    if not take()[1].startswith("decmesh"):
        raise MeshError("not a decmesh file")
    [dim] = header(take(), "dim", 1, least=1)
    [nv] = header(take(), "vertices", 1)
    vertices = np.array([row("vertices", float, dim) for _ in range(nv)]).reshape(nv, dim)
    if not np.isfinite(vertices).all():
        raise MeshError("vertices: a coordinate is not finite")
    simplices: dict[int, np.ndarray] = {}
    regions: list[str] | None = None
    markers_raw: list[tuple[str, tuple]] = []
    while pos < len(lines):
        line = take()
        tok = line[1].split()
        if tok[0] == "simplices":
            p, n = header(line, "simplices", 2)
            if not 1 <= p <= dim:
                raise MeshError(f"simplices, line {line[0]}: degree {p} is not in 1..{dim}")
            rows = np.array([row(f"simplices {p}", int, p + 1) for _ in range(n)],
                            dtype=np.int64).reshape(n, p + 1)
            if np.any(rows < 0) or np.any(rows >= nv):
                raise MeshError(f"simplex vertex id out of range in degree {p}")
            simplices[p] = _canonical_rows(rows)
            if len(_canonical_rows(rows, unique=True)) != n:
                raise MeshError(f"duplicate simplex in degree {p}")
        elif tok[0] == "regions":
            [n] = header(line, "regions", 1)
            regions = [("" if t == "-" else t) for _, t in (take() for _ in range(n))]
        elif tok[0] == "boundary":
            header(line, "boundary", 0)
            while pos < len(lines) and lines[pos][1] != "end":
                marker = take()
                parts = marker[1].split()
                ids = _numbers("boundary", marker, int, parts[1:])
                markers_raw.append((parts[0], tuple(sorted(ids))))
        elif tok[0] == "end":
            break
        else:
            raise MeshError(f"unknown section {tok[0]!r}")
    for p in range(1, dim + 1):
        if p not in simplices:
            raise MeshError(f"missing simplices of degree {p}")
    simplices[0] = np.unique(simplices[dim]).reshape(-1, 1)
    flat = simplex_volumes(vertices[simplices[dim]]) <= 0
    if flat.any():
        cell = simplices[dim][int(np.argmax(flat))]
        raise MeshError(f"simplices {dim}: cell {tuple(map(int, cell))} has zero volume; "
                        f"its vertices are at {vertices[cell].tolist()}")
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
    """The tetgen ``.node``/``.ele`` pair at ``prefix``.  Each header's counts fix its
    rows and their widths, ids run on from the first point's, 0 or 1, and a cell's first
    attribute names its region.  A malformed line raises :class:`MeshError` naming its
    file, its line number and the reason."""

    def fail(path: str, line: tuple[int, str], reason: str):
        raise MeshError(f"{path}, line {line[0]}: {line[1]!r} {reason}")

    def read(ext: str) -> tuple[str, list[int], list[tuple[int, str]]]:
        """The file's path, its header counts and its lines, header first; the rows
        after it are as many as the first count."""
        path = prefix + ext
        with open(path) as fh:
            lines = [(i, ln.split("#")[0].strip()) for i, ln in enumerate(fh, 1)]
        lines = [ln for ln in lines if ln[1]]
        if not lines:
            raise MeshError(f"{path}: no header line")
        head = _numbers(path, lines[0], int, lines[0][1].split())
        if len(head) < 2 or min(head[:2]) < 1 or min(head) < 0:
            fail(path, lines[0], "is not a header of two counts >= 1 and more >= 0")
        if len(lines) - 1 != head[0]:
            raise MeshError(f"{path}: the header counts {head[0]} rows, the file has "
                            f"{len(lines) - 1}")
        return path, head, lines

    def table(path: str, lines, width: int, kind, cols: slice) -> np.ndarray:
        """Columns ``cols`` of the rows after the header, each row ``width`` entries."""
        out = []
        for line in lines[1:]:
            tok = line[1].split()
            if len(tok) != width:
                fail(path, line, f"has {len(tok)} entries, not {width}")
            out.append(_numbers(path, line, kind, tok[cols]))
            if not np.isfinite(out[-1]).all():
                fail(path, line, "has a number that is not finite")
        return np.array(out, dtype=kind).reshape(len(out), cols.stop - cols.start)

    path, head, node = read(".node")
    nv, ndim = head[:2]
    width = 1 + sum(head[1:4])  # id, coordinates, attributes, boundary marker
    ids = table(path, node, width, int, slice(0, 1)).ravel()
    base = int(ids[0]) if ids[0] in (0, 1) else 0
    off = ids != base + np.arange(nv)
    if off.any():
        fail(path, node[1 + int(np.argmax(off))], "breaks the run of point ids from 0 or 1")
    vertices = table(path, node, width, float, slice(1, 1 + ndim))
    path, head, ele = read(".ele")
    if head[1] != ndim + 1:
        fail(path, ele[0], f"has {head[1]} points per cell, not {ndim + 1}")
    width = 2 + ndim + (head[2] if len(head) > 2 else 0)  # id, points, attributes
    cells = table(path, ele, width, int, slice(1, 2 + ndim)) - base
    bad = np.any((cells < 0) | (cells >= nv), axis=1)
    bad |= np.any(np.diff(np.sort(cells, axis=1), axis=1) == 0, axis=1)
    if bad.any():
        fail(path, ele[1 + int(np.argmax(bad))],
             f"names a point twice or outside {base}..{base + nv - 1}")
    flat = simplex_volumes(vertices[cells]) <= 0
    if flat.any():
        i = int(np.argmax(flat))
        fail(path, ele[1 + i], f"is a cell of zero volume; its points are at "
                               f"{vertices[cells[i]].tolist()}")
    regions = [""] * head[0]
    if width > 2 + ndim:
        attrs = table(path, ele, width, float, slice(2 + ndim, 3 + ndim))
        regions = [f"r{int(a)}" for a in attrs[:, 0]]
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
