"""The sparse triplet writer of ``decem export-matrices``.

It formats ``TRIPLET_CHUNK`` entries at a time and writes each chunk to the open
file, so a large matrix's text is never held whole.
"""

from __future__ import annotations

import numpy as np

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
