"""Dense reference kernels for the stress tests.

The engine carries each difference kernel as its per-cell blocks
(``stress.kernel_blocks``).  These helpers build the full matrices the tests
compare against: the eig path as W W^T - W0 W0^T from the side factors, and
the quadrature path as the side operators applied to M^-1; ``on_cells``
gathers a full matrix into the engine's per-cell block layout.
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from decem.stress import _side_factor, _side_quadrature


def dense_difference_kernel(st, which: str, via: str = "eig") -> np.ndarray:
    """Full kernel X of D1 or D2 (D = X M) on the shared kept DOFs of the carved side."""
    p = 1 if which == "D1" else 2
    j = st.kept_maps[p]
    if st.reference is st.sigma:
        return np.zeros((len(j), len(j)))
    if via == "eig":
        power, through_d = (0.5, False) if which == "D1" else (-0.5, True)
        W = _side_factor(st.sigma, power, through_d)
        W0 = _side_factor(st.reference, power, through_d, rows=j)
        return W @ W.T - W0 @ W0.T
    # the operator applied to M^-1 is the kernel; the reference needs columns j only
    a = _side_quadrature(st.sigma, which, st.sigma.ops.mass_factor(p).solve(np.eye(len(j))))
    ref = st.reference.ops
    E = ref.mass_factor(p).solve(np.eye(ref.n(p))[:, j])
    return a - _side_quadrature(st.reference, which, E)[j]


def on_cells(X: np.ndarray, ops, p: int) -> np.ndarray:
    """(n_cells, k, k) blocks of the dense kernel X on each cell's p-faces, in
    ``face_ids`` order, zero at masked faces."""
    pos = ops.kept_pos(p)[ops.complex.face_ids(p)]
    kept = pos >= 0
    return X[pos[:, :, None], pos[:, None, :]] * (kept[:, :, None] & kept[:, None, :])


def dense_decay_table(st, lam_grid, window) -> list[tuple[float, float]]:
    """||(R_sigma(lam) - R_ref(lam))|_window|| per lam from the formed w x w difference D."""
    w = len(window)
    parts = []  # per side: V_w, (M V)_w and the eigenvalues
    for side, rows in ((st.sigma, window), (st.reference, st.kept_maps[1][window])):
        pick = sp.eye(side.ops.n(1), format="csr")[rows]
        L, evals = side.hodge_system(sp.vstack([pick, side.ops.mass(1)[rows]], format="csr"))
        parts.append((L[:w], L[w:], evals))
    (a_s, b_s, l_s), (a_r, b_r, l_r) = parts
    out = []
    for lam in lam_grid:
        D = (a_s / (l_s + lam * lam)) @ b_s.T - (a_r / (l_r + lam * lam)) @ b_r.T
        top = sla.eigh(D @ D.T, eigvals_only=True, subset_by_index=[w - 1, w - 1]) if w else [0.0]
        out.append((float(lam), float(np.sqrt(max(top[0], 0.0)))))
    return out
