"""Checks on `decem` outputs from known mathematics, written apart from `decem`.

Nothing here imports `decem`.  The checks read the files the CLI writes and
the simplex arrays of the mesh the command built:

- Betti numbers of each canned obstacle, from its shape: n disjoint balls
  give (H1, H2) = (n, 0) for the relative cohomology H^p(M, dM) of the
  carved region M, a solid torus (1, 1), and two linked solid tori (2, 2).
- Euler identities.  Lefschetz duality gives H^p(M, dM) = H_{3-p}(M), and
  chi(dM) = 2 chi(M) for a compact 3-manifold, so
  chi(M) = 1 + H1 - H2 and sum_p (-1)^p (kept p-simplices) = chi(M, dM) = -chi(M),
  where the kept simplices are those not contained in a boundary facet.
- The exported incidence matrix d1 is the oriented incidence of the kept
  faces and edges (sorted-vertex convention), and mass1 is symmetric with a
  positive diagonal.
- Every assertion row of a pipeline's summary passes.

A check is a dict {"name", "ok", "detail"}; the assertion-row check also
carries "failed_rows".
"""

from __future__ import annotations

import json
import re
from itertools import combinations
from pathlib import Path

import numpy as np

# (H1, H2) of the relative cohomology of the carved region
BETTI = {"solid_torus": (1, 1), "hopf_link": (2, 2), "cube_obstacle": (1, 0)}

# The triplet writer formats values with repr(); NumPy >= 2 renders a NumPy
# scalar as e.g. "np.float64(0.1)".  Both forms carry the same number.
_VALUE = re.compile(r"^(?:np\.\w+\((?P<wrapped>[^()]*)\)|(?P<plain>\S+))$")


def check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def betti(geometry: str) -> tuple[int, int]:
    m = re.fullmatch(r"balls:(\d+)", geometry)
    if m:
        return int(m.group(1)), 0
    return BETTI[geometry]


# -- simplicial bookkeeping --------------------------------------------------------


def _sorted_rows(rows) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.int64)
    return np.sort(rows.reshape(len(rows), -1), axis=1)


def _keys(rows: np.ndarray, base: int) -> np.ndarray:
    key = np.zeros(len(rows), dtype=np.int64)
    for col in range(rows.shape[1]):
        key = key * base + rows[:, col]
    return key


def boundary_facets(cells: np.ndarray) -> np.ndarray:
    """Facets of the top cells that have exactly one coface."""
    cells = _sorted_rows(cells)
    faces = np.vstack([np.delete(cells, k, axis=1) for k in range(cells.shape[1])])
    uniq, counts = np.unique(faces, axis=0, return_counts=True)
    return uniq[counts == 1]


def kept_simplices(simplices: dict[int, np.ndarray], dim: int) -> dict[int, np.ndarray]:
    """p-simplices (sorted rows, input order) not contained in any boundary facet."""
    rows = {p: _sorted_rows(simplices[p]) for p in range(dim + 1)}
    base = int(max(r.max() for r in rows.values() if len(r))) + 1
    bf = boundary_facets(rows[dim])
    out = {dim: rows[dim]}
    for p in range(dim):
        sub = [bf[:, list(c)] for c in combinations(range(dim), p + 1)]
        on_boundary = np.isin(_keys(rows[p], base), _keys(np.vstack(sub), base))
        out[p] = rows[p][~on_boundary]
    return out


def euler_checks(simplices: dict[int, np.ndarray], dim: int, h1: int, h2: int,
                 prefix: str = "") -> list[dict]:
    n = [len(simplices[p]) for p in range(dim + 1)]
    chi = sum((-1) ** p * n[p] for p in range(dim + 1))
    kept = kept_simplices(simplices, dim)
    rel = sum((-1) ** p * len(kept[p]) for p in range(dim + 1))
    return [
        check(prefix + "euler_chi", chi == 1 + h1 - h2,
              f"chi={chi} from counts {n}; 1+H1-H2={1 + h1 - h2}"),
        check(prefix + "euler_relative", rel == -chi,
              f"sum (-1)^p kept_p={rel} from {[len(kept[p]) for p in range(dim + 1)]}; -chi={-chi}"),
    ]


# -- file readers ------------------------------------------------------------------


def parse_decmesh(text: str) -> tuple[int, dict[int, np.ndarray]]:
    """(dim, simplices) from the decmesh text format; vertices are those used."""
    lines = iter(text.splitlines())
    if next(lines).split() != ["decmesh", "1"]:
        raise ValueError("not a decmesh 1 file")
    dim = int(next(lines).split()[1])
    n_vertices = int(next(lines).split()[1])
    for _ in range(n_vertices):
        next(lines)
    simplices: dict[int, np.ndarray] = {}
    for p in range(1, dim + 1):
        head = next(lines).split()
        if head[:2] != ["simplices", str(p)]:
            raise ValueError(f"expected simplices {p}, got {head}")
        count = int(head[2])
        simplices[p] = np.array(
            [[int(x) for x in next(lines).split()] for _ in range(count)], dtype=np.int64
        ).reshape(count, p + 1)
    simplices[0] = np.unique(simplices[1]).reshape(-1, 1)
    return dim, simplices


def parse_value(token: str) -> float:
    m = _VALUE.match(token)
    if not m:
        raise ValueError(f"bad triplet value {token!r}")
    return float(m.group("wrapped") if m.group("wrapped") is not None else m.group("plain"))


def parse_triplets(text: str) -> tuple[tuple[int, int], np.ndarray, np.ndarray, np.ndarray]:
    """(shape, rows, cols, values) of a sparse triplet file."""
    lines = text.splitlines()
    if not lines[0].startswith("# sparse triplet"):
        raise ValueError("missing sparse triplet header")
    n_rows, n_cols, nnz = (int(x) for x in lines[1].split())
    body = [line.split(maxsplit=2) for line in lines[2:]]
    if len(body) != nnz:
        raise ValueError(f"header says {nnz} entries, file has {len(body)}")
    rows = np.array([int(b[0]) for b in body], dtype=np.int64)
    cols = np.array([int(b[1]) for b in body], dtype=np.int64)
    vals = np.array([parse_value(b[2]) for b in body], dtype=float)
    return (n_rows, n_cols), rows, cols, vals


# -- exported matrices -------------------------------------------------------------


def oriented_incidence(faces: np.ndarray, edges: np.ndarray) -> set[tuple[int, int, int]]:
    """(row, col, sign) of d1 restricted to the given faces and edges.

    Face (a, b, c) with a < b < c has boundary (b, c) - (a, c) + (a, b): the
    sign of the edge left by deleting position k is (-1)^k.
    """
    base = int(max(faces.max(), edges.max())) + 1
    edge_keys = _keys(edges, base)
    order = np.argsort(edge_keys)
    out = set()
    for k in range(3):
        sub = np.delete(faces, k, axis=1)
        keys = _keys(sub, base)
        pos = np.searchsorted(edge_keys, keys, sorter=order).clip(max=len(edges) - 1)
        hit = edge_keys[order[pos]] == keys
        for r, c in zip(np.nonzero(hit)[0], order[pos][hit]):
            out.add((int(r), int(c), (-1) ** k))
    return out


def d1_checks(text: str, kept: dict[int, np.ndarray] | None) -> list[dict]:
    shape, rows, cols, vals = parse_triplets(text)
    per_row = np.bincount(rows, minlength=shape[0]) if len(rows) else np.zeros(shape[0], int)
    out = [
        check("d1_entries_pm1", np.all(np.abs(vals) == 1.0),
              f"{int(np.sum(np.abs(vals) != 1.0))} entries not +-1"),
        check("d1_row_nnz_le3", per_row.max(initial=0) <= 3, f"max row nnz {per_row.max(initial=0)}"),
    ]
    if kept is not None:
        want_shape = (len(kept[2]), len(kept[1]))
        got = {(int(r), int(c), int(round(v))) for r, c, v in zip(rows, cols, vals)}
        want = oriented_incidence(kept[2], kept[1])
        out.append(check("d1_shape", shape == want_shape, f"{shape} vs kept {want_shape}"))
        out.append(check("d1_oriented_incidence", got == want,
                         f"{len(got ^ want)} entries differ from the oriented incidence"))
    return out


def mass_checks(text: str, name: str = "mass1") -> list[dict]:
    shape, rows, cols, vals = parse_triplets(text)
    mat = dict(zip(zip(rows.tolist(), cols.tolist()), vals.tolist()))
    scale = max(np.abs(vals).max(initial=0.0), 1e-300)
    asym = max((abs(v - mat.get((c, r), 0.0)) for (r, c), v in mat.items()), default=0.0)
    diag = np.array([mat.get((i, i), 0.0) for i in range(shape[0])])
    return [
        check(f"{name}_square", shape[0] == shape[1], f"shape {shape}"),
        check(f"{name}_symmetric", asym <= 1e-12 * scale, f"max |A - A^T| = {asym:.3e}"),
        check(f"{name}_positive_diagonal", len(diag) and diag.min() > 0.0,
              f"min diagonal {diag.min(initial=np.inf):.3e}"),
    ]


# -- summaries ---------------------------------------------------------------------


def summary_checks(command: str, summary: dict, h1: int, h2: int) -> list[dict]:
    result = summary["result"]
    rows = result.get("assertions", [])
    failed = [r["name"] for r in rows if not r["ok"]]
    rows_check = check("assertion_rows", rows and not failed,
                       f"{len(rows)} rows, failed: {failed}")
    rows_check["failed_rows"] = failed
    out = [rows_check, check("summary_passed_flag", summary["passed"] == (not failed),
                             f"passed={summary['passed']}")]
    if command == "topology":
        dims = {int(k): v for k, v in result["dims"].items()}
        # H^0(M, dM) = 0 and H^3(M, dM) = H_0(M) = 1 for a connected M with boundary
        want = {0: 0, 1: h1, 2: h2, 3: 1}
        out.append(check("betti_table", dims == want, f"dims {dims} vs {want}"))
    if command == "hodge":
        out.append(check("harmonic_dim_is_H1", result.get("harmonic_dim") == h1,
                         f"harmonic_dim {result.get('harmonic_dim')} vs H1 {h1}"))
    return out


def check_operation(command: str, geometry: str, outdir: Path,
                    carved: tuple[int, dict[int, np.ndarray]] | None) -> list[dict]:
    """All checks for one finished operation.

    ``carved`` is (dim, simplices) of the carved mesh the command built.
    """
    h1, h2 = betti(geometry)
    out: list[dict] = []
    kept = None
    if carved is None:
        out.append(check("mesh_captured", False, "the command built no canned scenario"))
    else:
        dim, simplices = carved
        out += euler_checks(simplices, dim, h1, h2)
        kept = kept_simplices(simplices, dim)
    if command == "dump-mesh":
        dim, simplices = parse_decmesh((outdir / "mesh.decmesh").read_text())
        out += euler_checks(simplices, dim, h1, h2, prefix="dump_")
    elif command == "export-matrices":
        out += d1_checks((outdir / "d1.txt").read_text(), kept)
        out += mass_checks((outdir / "mass1.txt").read_text())
    else:
        summary = json.loads((outdir / "summary.json").read_text())
        out += summary_checks(command, summary, h1, h2)
    return out
