"""Artifact writers: legacy-VTK cell data and streamed sparse triplets.

The triplet writer formats ``TRIPLET_CHUNK`` entries at a time and writes
each chunk to the open file, so a large matrix's text is never held whole.
"""

from __future__ import annotations

import io

import numpy as np

from .mesh import SimplicialComplex


def vtk_celldata(cplx: SimplicialComplex, fields: dict[str, np.ndarray]) -> str:
    """Legacy VTK unstructured grid with per-cell scalar fields."""
    if cplx.dim != 3:
        raise ValueError("cell-data export only for tetrahedral complexes")
    out = io.StringIO()
    out.write("# vtk DataFile Version 3.0\ndecem cell data\nASCII\n")
    out.write("DATASET UNSTRUCTURED_GRID\n")
    out.write(f"POINTS {len(cplx.vertices)} double\n")
    for v in cplx.vertices:
        out.write(" ".join(repr(float(x)) for x in v) + "\n")
    tets = cplx.simplices[3]
    out.write(f"CELLS {len(tets)} {5 * len(tets)}\n")
    for t in tets:
        out.write("4 " + " ".join(str(int(x)) for x in t) + "\n")
    out.write(f"CELL_TYPES {len(tets)}\n")
    out.write("\n".join(["10"] * len(tets)) + "\n")
    out.write(f"CELL_DATA {len(tets)}\n")
    for name, values in sorted(fields.items()):
        values = np.asarray(values)
        if values.ndim == 1:
            out.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            for x in values:
                out.write(repr(float(x)) + "\n")
        else:
            out.write(f"TENSORS {name} double\n")
            for m in values:
                for row in np.asarray(m).reshape(3, 3):
                    out.write(" ".join(repr(float(x)) for x in row) + "\n")
                out.write("\n")
    return out.getvalue()


# entries per write of the triplet writer: bounds the text held in memory
TRIPLET_CHUNK = 1 << 16


def write_sparse_triplets(mat, fh) -> None:
    """Write header lines, then one "row col value" line per entry in row-major order.

    Values of integer matrices are written as integers, others as float reprs.
    ``fh`` is an open text file.
    """
    coo = mat.tocoo()
    fh.write(f"# sparse triplet: rows cols nnz\n{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
    order = np.lexsort((coo.col, coo.row))
    data = coo.data if np.issubdtype(coo.dtype, np.integer) else coo.data.astype(float, copy=False)
    for start in range(0, coo.nnz, TRIPLET_CHUNK):
        part = order[start : start + TRIPLET_CHUNK]
        rows = zip(coo.row[part].tolist(), coo.col[part].tolist(), data[part].tolist())
        fh.write("".join(f"{r} {c} {v!r}\n" for r, c, v in rows))
