"""The dense exact Hodge Laplacian, kept as a test oracle for ``decem.spectral``.

``assemble_laplacian`` below is the engine's earlier exact assembly, with the
same floating-point operations but for its return type and its temporaries: it
multiplies the down-term out, S = d_p^T M_{p+1} d_p + K^T M_{p-1}^-1 K with
K = d_{p-1}^T M_p, as one dense symmetric array, adds the up-term at its
nonzeros and symmetrises in place.  The engine never forms S; it keeps the up-term
sparse and the down-term factored.  ``inverse_sqrt_quadrature`` is the
engine's earlier dense branch of the resolvent quadrature: the same nodes,
each a dense solve with S + l^2 M.  ``dense_pencil_eigs`` is the engine's earlier
complete ``eig`` on 1-forms: one dense ``eigh`` of the whole pencil (up, M), exact
forms included, completed on its kernel by ``kernel_block`` for the exact Delta_1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from decem.spectral import KERNEL_THRESHOLD, LaplaceOperator, kernel_block, quadrature_rule


@dataclass
class DenseLaplacian:
    p: int
    S: np.ndarray
    M: sp.csr_matrix

    @property
    def n(self) -> int:
        return self.M.shape[0]


def assemble_laplacian(ops, p: int) -> DenseLaplacian:
    """S = d_p^T M_{p+1} d_p + K^T M_{p-1}^-1 K with K = d_{p-1}^T M_p, and M = M_p."""
    d = ops.complex.dim
    M = ops.mass(p).tocsr()
    up = None
    if p < d:
        dp = ops.d(p)
        up = dp.T @ ops.mass(p + 1) @ dp
    if p == 0:
        if up is None:
            raise ValueError("empty Laplacian")
        return DenseLaplacian(p, ((up + up.T) * 0.5).toarray(), M)
    K = (ops.d(p - 1).T @ ops.mass(p)).tocsc()  # (n_{p-1}, n_p)
    Kd = K.toarray()
    X = ops.mass_factor(p - 1).solve(Kd)
    S = Kd.T @ X
    del Kd, X  # from here the one dense n_p x n_p array is S
    if up is not None:
        up = up.tocoo()
        up.sum_duplicates()
        S[up.row, up.col] += up.data
    S += S.T  # numpy buffers the overlapping operand
    S *= 0.5
    return DenseLaplacian(p, S, M)


def inverse_sqrt_quadrature(L: DenseLaplacian, X: np.ndarray, panels, spectrum_bounds):
    """Delta^(-1/2) X by the engine's quadrature nodes, each a dense solve."""
    lo, hi = spectrum_bounds
    th, w = quadrature_rule(*panels)
    c = np.sqrt(np.sqrt(lo * hi))
    lam = c * np.tan(th)
    dl = c / np.cos(th) ** 2
    M = L.M.toarray()
    MX = M @ X
    out = np.zeros_like(X)
    for wi, li, dli in zip(w, lam, dl):
        out += (2.0 / np.pi) * wi * dli * sla.solve(L.S + (li * li) * M, MX, assume_a="pos")
    return out


def dense_pencil_eigs(ops) -> dict[str, tuple[np.ndarray, np.ndarray, int]]:
    """(evals, vectors, kernel_dim) of the bare 1-form pencil (d_1^T M_2 d_1, M_1) and
    of the exact Delta_1, from one dense ``eigh`` of the whole pencil; the exact one is
    completed on the kernel by ``kernel_block``."""
    op = LaplaceOperator(1, ops, (ops.d(1).T @ ops.mass(2) @ ops.d(1)).tocsr(), ops.mass(1))
    evals, vecs = sla.eigh(op.up.toarray(), op.M.toarray())
    out = {"bare": (evals, vecs)}
    kd = int(np.sum(np.abs(evals) < KERNEL_THRESHOLD * evals[-1]))
    nu, U = kernel_block(op, vecs[:, :kd])
    vecs = vecs.copy()
    vecs[:, :kd] = vecs[:, :kd] @ U
    evals = np.concatenate([nu, evals[kd:]])
    order = np.argsort(evals, kind="stable")
    out["exact"] = (evals[order], vecs[:, order])
    for kind, (evals, vecs) in out.items():
        evals = np.abs(evals)
        out[kind] = (evals, vecs, int(np.sum(evals < KERNEL_THRESHOLD * evals[-1])))
    return out
