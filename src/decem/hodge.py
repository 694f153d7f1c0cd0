"""Harmonic bases, the capacity-normalised mode, and the Helmholtz split.

The capacity potential solves the discrete Dirichlet problem u = 1 on the
obstacle boundary, u = 0 on the outer (truncation) boundary.  Its gradient,
restricted to interior edges, is exactly closed and co-closed in the reduced
complex, so du/sqrt(<du,du>) is the distinguished harmonic one-form.
:func:`harmonic_basis` is the one builder of the harmonic basis, with that mode
last; run hodge and run qft (through ``spectral.build_Q_eps``) both take it.

The Hodge-Kodaira split of a 1-cochain needs no eigensystem beyond that basis, and
no Delta^+: :class:`HelmholtzSolver` takes the exact part from one scalar solve on
the spanning forest's columns of d_0, and the coexact part from one tree-cotree
gauged curl-curl solve (Gross & Kotiuga, *Electromagnetic Theory and Computation*,
2004).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .forms import DecOperators, _symmetric_factor
from .mesh import OBSTACLE, boundary_components
from .spectral import LaplaceOperator, SpectralDecomposition, _spanning_forest

# least gap ratio lambda_{k+1} / lambda_k between a kernel and the rest of the spectrum
GAP_FLOOR = 1e3


@dataclass
class HarmonicBasis:
    """M-orthonormal basis of ker Delta_p; for p=1 with obstacle the last
    vector is the capacity-normalised du, u the capacity potential ``potential``
    on all nodes."""

    p: int
    vectors: np.ndarray
    capacity: float | None = None
    potential: np.ndarray | None = None

    @property
    def L(self) -> int:
        return self.vectors.shape[1]


@dataclass
class HelmholtzSplit:
    phi: np.ndarray
    harmonic: np.ndarray
    exact: np.ndarray
    coexact: np.ndarray

    def recomposition_error(self, ops: DecOperators, p: int) -> float:
        r = self.phi - (self.harmonic + self.exact + self.coexact)
        return ops.norm(p, r) / max(ops.norm(p, self.phi), 1e-300)


def _node_positions(cplx, facets: np.ndarray) -> np.ndarray:
    """Sorted positions (0-simplex indices) of the vertices of the given facets."""
    rows = cplx.simplices[cplx.dim - 1][facets]
    return np.unique(cplx.lookup(0, rows.reshape(-1, 1)))


def dirichlet_potential(
    ops: DecOperators, boundary_values: list[tuple[np.ndarray, float]]
) -> np.ndarray:
    """Harmonic 0-cochain with prescribed values on boundary node groups.

    ``boundary_values`` is a list of (node-position array, value) pairs.
    Returns the full 0-cochain (indexed like the complex's 0-simplices).
    """
    cplx = ops.complex
    d0 = ops.d_full[0]
    m1 = ops.mass_full[1]
    S = (d0.T @ m1 @ d0).tocsr()
    n0 = cplx.n(0)
    u = np.zeros(n0)
    fixed = np.zeros(n0, dtype=bool)
    for nodes, val in boundary_values:
        u[np.asarray(nodes, dtype=np.int64)] = val
        fixed[np.asarray(nodes, dtype=np.int64)] = True
    free = np.nonzero(~fixed)[0]
    if len(free):
        Sff = S[free][:, free].tocsc()
        rhs = -(S[free] @ u)
        u[free] = spla.spsolve(Sff, rhs)
    return u


def capacity_and_psiL(
    ops: DecOperators, charge_component: int | None = None
) -> tuple[float, np.ndarray, np.ndarray]:
    """Capacity potential, its Dirichlet energy, and the normalised gradient.

    With ``charge_component`` None all obstacle components are held at 1; an
    integer charges only that obstacle component.  Returns (capacity, u on all
    nodes, psi_L on kept edges).
    """
    cplx = ops.complex
    if cplx.dim != 3:
        raise ValueError("capacity mode is specific to three dimensions")
    comps = [c for m, c in boundary_components(cplx) if m == OBSTACLE]
    if not comps:
        raise ValueError("no obstacle boundary present")
    # the markers cover the boundary facets, so the others are the non-obstacle ones
    outer = np.setdiff1d(cplx.boundary_facets(), cplx.boundary_markers[OBSTACLE])
    outer_nodes = _node_positions(cplx, outer)
    bvals: list[tuple[np.ndarray, float]] = [(outer_nodes, 0.0)]
    for ci, comp in enumerate(comps):
        on = charge_component is None or charge_component == ci
        bvals.append((_node_positions(cplx, comp), 1.0 if on else 0.0))
    u = dirichlet_potential(ops, bvals)
    du = ops.d_full[0] @ u
    m1 = ops.mass_full[1]
    cap = float(du @ (m1 @ du))
    psi = du[ops.kept[1]]
    nrm = np.sqrt(psi @ (ops.mass(1) @ psi))
    if nrm == 0:
        raise ValueError("capacity potential has vanishing gradient; mesh disconnected?")
    return cap, u, psi / nrm


def harmonic_basis(dec: SpectralDecomposition, ops: DecOperators) -> HarmonicBasis:
    """Extract ker Delta_p with the distinguished last vector when applicable.

    ``dec`` may be partial (``eig(op, k)``), but then it must reach past the kernel
    (``dec.kernel_basis()`` checks it).  For p = 1 on a 3-complex with an obstacle the
    capacity potential is solved for here, once; its normalised gradient must lie in
    the kernel, and the basis completes it there, last.
    """
    if dec.gap_ratio < GAP_FLOOR:
        raise ValueError(
            f"ambiguous kernel: spectral gap ratio {dec.gap_ratio:.2e} below {GAP_FLOOR:.0e}"
        )
    p, K = dec.p, dec.kernel_basis()
    cplx = ops.complex
    if p == 1 and cplx.dim == 3 and OBSTACLE in cplx.boundary_markers:
        cap, u, psi = capacity_and_psiL(ops)
        hb = HarmonicBasis(p, _complete_with_last(K, psi, ops.mass(1)), cap, u)
    else:
        hb = HarmonicBasis(p, K.copy())
    _check_harmonic(ops, hb)
    return hb


def _complete_with_last(K: np.ndarray, psi: np.ndarray, M) -> np.ndarray:
    """M-orthonormal basis of span K whose last vector is the unit vector psi."""
    L = K.shape[1]
    coef = K.T @ (M @ psi)
    resid = psi - K @ coef
    off = np.sqrt(abs(resid @ (M @ resid)))
    if off > 1e-6:
        raise ValueError(
            f"capacity gradient is not in the numerical kernel: |residual| {off:.2e} > 1.00e-06"
        )
    rest = K @ (np.eye(L) - np.outer(coef, coef))
    w, U = np.linalg.eigh(rest.T @ (M @ rest))
    keep = w > 1e-10
    cols = rest @ (U[:, keep] / np.sqrt(w[keep])[None, :])
    basis = np.column_stack([cols[:, : L - 1], psi])
    orth = np.linalg.norm(basis.T @ (M @ basis) - np.eye(L))
    if orth > 1e-8:
        raise AssertionError(
            f"distinguished kernel basis lost orthonormality: {orth:.2e} > 1.00e-08"
        )
    return basis


def _check_harmonic(ops: DecOperators, hb: HarmonicBasis) -> None:
    p = hb.p
    d = ops.complex.dim
    tol = 1e-8
    for k in range(hb.L):
        v = hb.vectors[:, k]
        errs = []
        if p < d:
            errs.append(ops.norm(p + 1, ops.d(p) @ v))
        if p > 0:
            errs.append(ops.norm(p - 1, ops.apply_codifferential(p, v)))
        if errs and max(errs) > tol:
            raise AssertionError(
                f"kernel vector {k} is not harmonic: residual {max(errs):.2e} > {tol:.2e}"
            )


def sector_split(
    dec: SpectralDecomposition, ops: DecOperators
) -> tuple[np.ndarray, np.ndarray]:
    """Split ker Delta_1 into charge modes (per-component capacity gradients)
    and the topological complement.  Returns (q_basis, top_basis)."""
    comps = [c for m, c in boundary_components(ops.complex) if m == OBSTACLE]
    K = dec.kernel_basis()
    M = dec.M
    if not comps or K.shape[1] == 0:
        return np.zeros((K.shape[0], 0)), K.copy()
    qs = []
    for ci in range(len(comps)):
        _cap, _u, psi = capacity_and_psiL(ops, charge_component=ci)
        qs.append(psi)
    Q = np.column_stack(qs)
    # orthonormalise inside the kernel
    coef = K.T @ (M @ Q)
    Qk = K @ coef
    g = Qk.T @ (M @ Qk)
    w, U = np.linalg.eigh(g)
    keep = w > 1e-10 * w.max()
    q_basis = Qk @ (U[:, keep] / np.sqrt(w[keep])[None, :])
    # complement within the kernel
    resid = K - q_basis @ (q_basis.T @ (M @ K))
    g2 = resid.T @ (M @ resid)
    w2, U2 = np.linalg.eigh(g2)
    keep2 = w2 > 1e-8
    top_basis = resid @ (U2[:, keep2] / np.sqrt(w2[keep2])[None, :])
    return q_basis, top_basis


def threshold_integral(dec: SpectralDecomposition, phi: np.ndarray, delta: float) -> float:
    """int_0^delta <(Delta + l^2)^-1 phi, phi> dl for kernel-free phi.

    The quantity that distinguishes charged from neutral smearing as the
    truncation radius grows: it stays bounded iff phi is in the domain of the
    quarter-power in the continuum limit.
    """
    kd = dec.kernel_dim
    c, lam = dec.coefficients(phi)[kd:], dec.lam[kd:]
    return float(np.sum(c**2 * np.arctan(delta / lam) / lam))


class HelmholtzSolver:
    """Three-way Hodge-Kodaira split of 1-cochains from a harmonic basis and two sparse
    SPD solves, each factored once here.

    With ``tree, cols = _spanning_forest(d_0)`` and G = d_0[:, cols] (range G =
    range d_0): the harmonic part is h = H H^T M phi for the M-orthonormal basis H of
    ``hb``; the exact part is G u, (G^T M G) u = G^T M phi, SPD since G has full
    column rank; and with c = phi - h - G u the coexact part is M^-1 up[:, C] y,
    up[C, C] y = (M c)_C.  C is the cotree less L gauge edges.  up on the cotree is
    singular on the L closed forms that vanish on the tree, z = h - G U with
    (G U)_tree = h_tree; the gauge edges are those a pivoted QR of Z_cotree^T picks,
    so up[:, C] is injective and up[C, C] SPD.  M c lies in range up = range up[:, C]
    only if c is M-orthogonal to every closed form, so the recomposition reads 0 only
    if H spans the whole kernel.
    """

    def __init__(self, op: LaplaceOperator, hb: HarmonicBasis):
        self.op, self.hb = op, hb
        H, d0 = hb.vectors, op.ops.d(0)
        tree, cols = _spanning_forest(d0)
        self.G = d0[:, cols].tocsc()
        self._solve_exact = _symmetric_factor(self.G.T @ op.M @ self.G).solve
        cotree = np.setdiff1d(np.arange(op.n), tree)
        U = spla.spsolve(self.G[tree], H[tree]).reshape(len(tree), -1)
        Z = H[cotree] - self.G[cotree] @ U
        gauge = sla.qr(Z.T, mode="r", pivoting=True)[1][: hb.L]
        self.C = np.delete(cotree, gauge)
        self.up_C = op.up[:, self.C]
        self._solve_coexact = _symmetric_factor(self.up_C[self.C]).solve

    def split(self, phi: np.ndarray) -> HelmholtzSplit:
        M, H, G = self.op.M, self.hb.vectors, self.G
        Mphi = M @ phi
        harmonic = H @ (H.T @ Mphi)
        exact = G @ self._solve_exact(G.T @ Mphi)
        y = self._solve_coexact((Mphi - M @ (harmonic + exact))[self.C])
        coexact = self.op.ops.mass_factor(1).solve(self.up_C @ y)
        return HelmholtzSplit(
            phi=np.array(phi, copy=True),
            harmonic=harmonic,
            exact=exact,
            coexact=coexact,
        )
