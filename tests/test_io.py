import io

import numpy as np
import pytest
import scipy.sparse as sp

from decem.io import TRIPLET_CHUNK, write_sparse_triplets


def triplets_per_entry(mat) -> str:
    """Reference writer: one formatted line per entry, in a Python loop."""
    coo = mat.tocoo()
    value = int if np.issubdtype(coo.dtype, np.integer) else lambda v: repr(float(v))
    out = ["# sparse triplet: rows cols nnz", f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}"]
    order = np.lexsort((coo.col, coo.row))
    for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order]):
        out.append(f"{int(r)} {int(c)} {value(v)}")
    return "\n".join(out) + "\n"


def written(mat) -> str:
    fh = io.StringIO()
    write_sparse_triplets(mat, fh)
    return fh.getvalue()


def test_triplets_integer_matrix():
    mat = sp.csr_matrix(np.array([[0, -1, 1], [1, 0, 0], [0, 0, -1]], dtype=np.int64))
    assert written(mat) == triplets_per_entry(mat)
    assert "0 1 -1\n" in written(mat)


def test_triplets_float_extremes():
    vals = np.array([-0.0, 5e-324, 1e300, -1e300, 0.1, 1.0 / 3.0])
    mat = sp.coo_matrix((vals, (np.arange(6) % 3, np.arange(6))), shape=(3, 6))
    text = written(mat)
    assert text == triplets_per_entry(mat)
    assert "-0.0\n" in text and "5e-324\n" in text and "1e+300\n" in text


def test_triplets_unsorted_coo_with_duplicates():
    rows = np.array([2, 0, 2, 1, 0, 2, 0])
    cols = np.array([1, 3, 1, 0, 3, 0, 1])
    vals = np.array([1.5, -2.0, 0.25, 4.0, 8.0, -0.5, 3.0])
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(3, 4))
    text = written(mat)
    assert text == triplets_per_entry(mat)
    assert text.splitlines()[1] == "3 4 7"


def test_triplets_empty_matrix():
    for mat in (sp.csr_matrix((0, 0)), sp.csr_matrix((4, 3), dtype=np.int64)):
        assert written(mat) == triplets_per_entry(mat)


@pytest.mark.parametrize("nnz", [TRIPLET_CHUNK - 1, TRIPLET_CHUNK, 2 * TRIPLET_CHUNK + 1])
def test_triplets_across_chunk_boundaries(nnz):
    rng = np.random.default_rng(nnz)
    n = 512
    flat = rng.choice(n * n, size=nnz, replace=False)
    mat = sp.coo_matrix((rng.standard_normal(nnz), (flat // n, flat % n)), shape=(n, n))
    assert written(mat) == triplets_per_entry(mat)
