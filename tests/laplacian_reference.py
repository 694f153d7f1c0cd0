"""The dense exact Hodge Laplacian, kept as a test oracle for ``decem.spectral``.

``assemble_laplacian`` below is the engine's earlier exact assembly, with the
same floating-point operations but for its return type and its temporaries: it
multiplies the down-term out, S = d_p^T M_{p+1} d_p + K^T M_{p-1}^-1 K with
K = d_{p-1}^T M_p, as one dense symmetric array, adds the up-term at its
nonzeros and symmetrises in place.  The engine never forms S; it keeps the up-term
sparse and the down-term factored.  ``inverse_sqrt_quadrature`` is the
engine's earlier dense branch of the resolvent quadrature: the same nodes,
each a dense solve with S + l^2 M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from decem.spectral import quadrature_rule


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
