"""Hodge Laplacians, eigendecompositions and spectral operator functions.

Delta_p has one form (:class:`LaplaceOperator`): a sparse up-term, the mass M
and a factored down-term K^T M_{p-1}^-1 K.  ``eig(op, "all")`` is a dense ``eigh``
of the pencil (up, M), the only dense form of Delta_p, completed on its kernel by
:func:`kernel_block`; on 1-cochains a tree-cotree gauge (:func:`_gauged_eigh`)
takes the exact forms out of that ``eigh`` first.  ``eig(op, k)`` is ARPACK
shift-invert for the k lowest pairs, the kernel and lambda_min among them.  A
partial decomposition never evaluates operator functions itself: its kernel basis
goes to :class:`LanczosCalculus`, and on request its shifted factor to
:func:`pseudo_inverse`.  ``SpectralDecomposition.lam`` is the one source of
frequencies of a complete system: exactly 0 on the kernel.  Without a spectrum,
f(Delta) x comes from :class:`LanczosCalculus` on Delta_p and its kernel basis: the
kernel part of x takes f(0), and one Krylov basis of the rest serves every f that is
finite at 0, with an a-posteriori stopping rule; the bases of a block of start
vectors step in lockstep, sharing each sparse product and each mass solve.  Both
calculi have the call shape ``functions(x, fs)`` (or ``functions(X, fss)`` on an
n x k block, one function list per column) and the mass matrix ``M``.  Delta^+ is
:func:`pseudo_inverse`, refinement on one shifted factor, for the Helmholtz split of
``decem.hodge``; the dense ``SpectralDecomposition.pseudo_inverse`` is a test oracle.
Delta^(-1/2) is :func:`inverse_sqrt_quadrature`.  Every sparse shift-invert,
refinement and quadrature node factors the quasi-definite
[[up - sigma M, K^T], [K, -W]] (:func:`_shift_inverse`), never S - sigma M; each
mass matrix is factored once, by ``DecOperators.mass_factor``.  Q_eps
(:func:`build_Q_eps`) takes the distinguished harmonic basis that
``hodge.harmonic_basis`` builds.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .forms import DecOperators, _symmetric_factor

if TYPE_CHECKING:
    from .hodge import HarmonicBasis

KERNEL_THRESHOLD = 1e-8


@dataclass
class LaplaceOperator:
    """Stiffness form S = up + K^T W^-1 K of d delta~ + delta~ d on kept p-cochains.

    up = d_p^T M_{p+1} d_p, K = d_{p-1}^T M_p and W = M_{p-1}, whose one factor is
    ``ops.mass_factor(p - 1)``.  K is None without a down-term (p = 0, or a bare
    pencil (up, M)).  S is only applied from these parts.
    """

    p: int
    ops: DecOperators
    up: sp.csr_matrix
    M: sp.csr_matrix  # ops.mass(p): its factor is ops.mass_factor(p)
    K: sp.csc_matrix | None = None  # (n_{p-1}, n_p)

    @property
    def n(self) -> int:
        return self.M.shape[0]

    @cached_property
    def S(self) -> spla.LinearOperator:
        solve_W = None if self.K is None else self.ops.mass_factor(self.p - 1).solve

        def apply(x):
            y = self.up @ x
            return y if self.K is None else y + self.K.T @ solve_W(self.K @ x)

        return spla.LinearOperator(self.up.shape, matvec=apply, matmat=apply, dtype=float)


def assemble_laplacian(ops: DecOperators, p: int) -> LaplaceOperator:
    """Delta_p from sparse parts."""
    d = ops.complex.dim
    if p == d == 0:
        raise ValueError("empty Laplacian")
    M = ops.mass(p).tocsr()
    up = (ops.d(p).T @ ops.mass(p + 1) @ ops.d(p)).tocsr() if p < d else sp.csr_matrix(M.shape)
    if p == 0:
        return LaplaceOperator(p, ops, up, M)
    return LaplaceOperator(p, ops, up, M, (ops.d(p - 1).T @ ops.mass(p)).tocsc())


def kernel_block(op: LaplaceOperator, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (nu, U) of V^T S V = B^T W^-1 B, B = K V = d^T (M V), where V is an
    M-orthonormal basis of ker up.  M^-1 S keeps span V (d delta~ maps closed forms
    to exact ones), so V U are eigenvectors of Delta_p."""
    B = op.ops.d(op.p - 1).T @ (op.ops.mass(op.p) @ V)  # this order keeps stress byte-stable
    return np.linalg.eigh(B.T @ op.ops.mass_factor(op.p - 1).solve(B))


@dataclass
class SpectralDecomposition:
    """Generalized eigenpairs (lambda^2, v) with M-orthonormal vectors."""

    p: int
    evals: np.ndarray
    vectors: np.ndarray
    M: sp.csr_matrix
    kernel_dim: int
    max_eval: float

    @property
    def complete(self) -> bool:
        """Every eigenpair is here, so operator functions are allowed."""
        return len(self.evals) == self.vectors.shape[0]

    @property
    def gap_ratio(self) -> float:
        kd = self.kernel_dim
        if kd == 0 or kd >= len(self.evals):
            return np.inf
        top_kernel = max(abs(self.evals[kd - 1]), 1e-300)
        return float(self.evals[kd] / top_kernel)

    def kernel_basis(self) -> np.ndarray:
        """The kernel's M-orthonormal basis.  A partial decomposition must reach past
        its kernel: one with every eigenvalue in the kernel may have cut it short."""
        kd, count = self.kernel_dim, len(self.evals)
        if kd >= count and not self.complete:
            raise ValueError(
                f"partial decomposition has no eigenvalue above its kernel: kernel_dim {kd} "
                f"of count {count}; the kernel may be truncated"
            )
        return self.vectors[:, :kd]

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        return self.vectors.T @ (self.M @ x)

    @property
    def lam(self) -> np.ndarray:
        """Frequencies sqrt(lambda^2), exactly 0 on the kernel (computed on each access);
        needs a complete decomposition."""
        if not self.complete:
            raise ValueError("operator functions need a complete exact decomposition")
        lam = np.sqrt(self.evals)
        lam[: self.kernel_dim] = 0.0
        return lam

    def functions(self, x: np.ndarray, fs):
        """Rows f(Delta) x, one per f in ``fs``; each f maps an array of frequencies
        ``lam`` to values and must be finite at 0.  For an n x k block x, ``fs`` holds
        one function list per column and the result is the list of the k columns' row
        arrays.  The call shape :class:`LanczosCalculus` also implements."""
        lam, C = self.lam, self.coefficients(x)
        block = C.ndim == 2
        out = []
        for c, col_fs in zip(C.T if block else [C], fs if block else [fs]):
            vals = np.array([f(lam) for f in col_fs])
            if not np.all(np.isfinite(vals)):
                raise ValueError("operator function produced non-finite values")
            out.append((vals * c) @ self.vectors.T)
        return out if block else out[0]

    def pseudo_inverse(self, x: np.ndarray) -> np.ndarray:
        """Delta^+ x on a vector or an n x k block: the kernel dropped, 1/lambda^2 on
        the rest."""
        kd = self.kernel_dim
        inv = np.zeros_like(self.lam)  # lam rejects a partial decomposition
        inv[kd:] = 1.0 / self.evals[kd:]
        return self.vectors @ (inv * self.coefficients(x).T).T

    def project_out_kernel(self, x: np.ndarray) -> np.ndarray:
        K = self.kernel_basis()
        if K.shape[1] == 0:
            return np.array(x, copy=True)
        return x - K @ (K.T @ (self.M @ x))


def eig(op: LaplaceOperator, count="all", return_factor: bool = False):
    """Eigendecomposition of the generalized problem; ``count`` is 'all' or k lowest.

    'all': dense ``eigh`` of the pencil (up, M), :func:`kernel_block`, stable sort.
    On 1-cochains with kept vertices, where up = d_1^T M_2 d_1 annihilates the exact
    forms, these are gauged out first (:func:`_gauged_eigh`): the ``eigh`` runs on
    the n_1 - rank d_0 cotree rows, and the exact part of the kernel basis comes as
    d_0 L^-T with pencil eigenvalue 0.  The kernel count, :func:`kernel_block`, the
    negative-eigenvalue check and the residual checks then run as for every degree.
    With ``return_factor`` the result is (decomposition, factor): the shifted factor
    (S - sigma M)^-1, sigma = -1e-6 ``max_eval``, that a partial eig made, which
    :func:`pseudo_inverse` takes (run hodge's Helmholtz split is the one caller);
    None after a dense eig.
    """
    n = op.n
    if count == "all":
        if op.p == 1 and op.ops.n(0):
            evals, vecs = _gauged_eigh(op)
        else:
            evals, vecs = sla.eigh(
                op.up.toarray(order="F"), op.M.toarray(order="F"),
                overwrite_a=True, overwrite_b=True,
            )
        if op.K is not None:
            kd = int(np.sum(np.abs(evals) < KERNEL_THRESHOLD * evals[-1]))
            nu, U = kernel_block(op, vecs[:, :kd])
            vecs[:, :kd] = vecs[:, :kd] @ U
            evals = np.concatenate([nu, evals[kd:]])
            order = np.argsort(evals, kind="stable")
            evals, vecs = evals[order], vecs[:, order]
        max_eval = float(evals[-1]) if n else 0.0
        shift_inv = None
    else:
        k = int(count)
        if k >= n - 1:
            return eig(op, "all", return_factor)
        max_eval = _norm_estimate(op)
        sigma = -1e-6 * max_eval
        shift_inv = _shift_inverse(op, sigma)
        evals, vecs = spla.eigsh(
            op.S, k=k, M=op.M, sigma=sigma, which="LM", OPinv=shift_inv, v0=_start_vector(op.n),
        )
        order = np.argsort(evals)
        evals, vecs = evals[order], vecs[:, order]
    neg_tol = 1e-10 * max(max_eval, 1.0)
    if len(evals) and evals.min() < -neg_tol:
        raise AssertionError(
            f"Laplacian has significantly negative eigenvalues: {evals.min():.2e} < {-neg_tol:.2e}"
        )
    evals = np.abs(evals)
    kernel_dim = int(np.sum(evals < KERNEL_THRESHOLD * max(max_eval, 1e-300)))
    dec = SpectralDecomposition(
        p=op.p,
        evals=evals,
        vectors=vecs,
        M=op.M,
        kernel_dim=kernel_dim,
        max_eval=max_eval,
    )
    _check_residuals(op, dec)
    if return_factor:
        return dec, shift_inv
    return dec


def _spanning_forest(d0: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """A breadth-first spanning forest of the kept vertices, d0 the kept incidence.

    The vertices d0 drops (those on the boundary) act as one root: an edge with one
    kept end joins it.  The forest grows from the root first, then from the lowest
    unreached vertex of each component that touches no boundary, which is that
    component's own root.  Returns (tree, cols): tree[i] is the edge that reaches
    kept vertex cols[i], and cols holds every kept vertex but the component roots.
    So d0[tree][:, cols] is invertible, range d0[:, cols] = range d0 and
    rank d0 = len(cols).
    """
    n1, n0 = d0.shape
    counts = np.diff(d0.indptr)
    ends = np.full((n1, 2), n0)  # vertex n0 stands for the root
    slot = np.arange(d0.nnz) - np.repeat(d0.indptr[:-1], counts)
    ends[np.repeat(np.arange(n1), counts), slot] = d0.indices
    # the incidences sorted by vertex: those of vertex v are start[v]:start[v + 1]
    order = np.argsort(ends.ravel(), kind="stable")
    start = np.searchsorted(ends.ravel()[order], np.arange(n0 + 2))
    other = ends.ravel()[order ^ 1]  # the edge's other end
    reach = np.full(n0 + 1, -1)  # the tree edge that reaches each vertex, -2 at roots
    frontier = np.array([n0])
    while True:
        reach[frontier] = -2
        while len(frontier):
            lo, lens = start[frontier], start[frontier + 1] - start[frontier]
            inc = np.arange(lens.sum()) + np.repeat(lo - np.cumsum(lens) + lens, lens)
            inc = inc[reach[other[inc]] == -1]
            frontier, first = np.unique(other[inc], return_index=True)
            reach[frontier] = order[inc[first]] // 2
        left = np.flatnonzero(reach[:n0] == -1)
        if not len(left):
            break
        frontier = left[:1]
    cols = np.flatnonzero(reach[:n0] >= 0)
    return reach[cols], cols


# columns per block of the lift in _gauged_eigh, so its n x chunk temporaries stay small
_LIFT_CHUNK = 256


def _gauged_eigh(op: LaplaceOperator) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs of the pencil (up, M) on 1-cochains with the exact forms gauged
    out of the dense ``eigh`` (tree-cotree gauge; Gross & Kotiuga, *Electromagnetic
    Theory and Computation*, 2004).

    up d_0 = 0, so range d_0 lies in the kernel.  With the forest of
    :func:`_spanning_forest` (tree edges T, cotree edges C, G = d_0[:, cols] of rank
    r = |T|) and H = G^T M G = L L^T, every x with G^T M x = 0 is
    x = E_C y - G H^-1 G_C y, G_C = (G^T M)[:, C], and on those x the pencil is
    (up_CC, M~), M~ = M_CC - G_C^T H^-1 G_C.  So ``eigh`` runs on c = n - r rows, and
    its M~-orthonormal y lift to M-orthonormal x.  Returns the eigenvalues [0 (r times),
    the pencil's on C] and the vectors [G L^-T, the lifts] in one n x n
    Fortran-ordered array X.  up_CC is written into the first c^2 entries of X, where
    ``eigh`` leaves its vectors; the lift then moves them out column block by column
    block, last first, so no second n x n array is ever made.
    """
    n, d0 = op.n, op.ops.d(0)
    tree, cols = _spanning_forest(d0)
    r, c = len(cols), n - len(cols)
    cot = np.ones(n, dtype=bool)
    cot[tree] = False
    G = d0[:, cols].astype(float)
    GM = (G.T @ op.M).tocsc()
    L = sla.cholesky((GM @ G).toarray(), lower=True)
    Z = sla.solve_triangular(L, GM[:, cot].toarray(), lower=True)  # L^-1 G_C
    X = np.empty((n, n), order="F")
    A = X.reshape(-1, order="F")[: c * c].reshape((c, c), order="F")
    A.fill(0.0)
    op.up[cot][:, cot].toarray(out=A)
    # M~ = M_CC - Z^T Z in place, on the lower triangle that eigh reads
    Mt = sla.blas.dsyrk(
        -1.0, Z, beta=1.0, c=op.M[cot][:, cot].toarray(order="F"), trans=1, lower=1,
        overwrite_c=1,
    )
    evals, Y = sla.eigh(A, Mt, overwrite_a=True, overwrite_b=True)
    del A, Mt
    W = sla.solve_triangular(L, Z @ Y, lower=True, trans="T")  # H^-1 G_C Y
    # column j of Y ends before column r + j of X starts, so blocks move last first
    for j in reversed(range(0, c, _LIFT_CHUNK)):
        block = Y[:, j : j + _LIFT_CHUNK].copy()
        X[:, r + j : r + j + _LIFT_CHUNK] = -(G @ W[:, j : j + _LIFT_CHUNK])
        X[cot, r + j : r + j + _LIFT_CHUNK] += block
    X[:, :r] = sla.solve_triangular(L, G.T.toarray(), lower=True).T
    return np.concatenate([np.zeros(r), evals]), X


def _start_vector(n: int) -> np.ndarray:
    """Fixed-seed ARPACK start vector (not ones: symmetry can hide eigenvectors)."""
    return np.random.default_rng(0).standard_normal(n)


def _shift_inverse(op: LaplaceOperator, sigma: float) -> spla.LinearOperator:
    """(S - sigma M)^-1, sigma < 0, on vectors and blocks (also ARPACK's ``OPinv``).

    [[up - sigma M, K^T], [K, -W]] has Schur complement S - sigma M, so the
    first n rows of its solve with [x, 0] are (S - sigma M)^-1 x.
    """
    n = op.n
    A = op.up - sigma * op.M
    if op.K is not None:
        A = sp.bmat([[A, op.K.T], [op.K, -op.ops.mass(op.p - 1)]])
    solve = _symmetric_factor(A).solve
    pad = A.shape[0] - n

    def apply(x):
        return solve(np.concatenate([x, np.zeros((pad,) + x.shape[1:])]))[:n]

    return spla.LinearOperator((n, n), matvec=apply, matmat=apply, dtype=float)


def _check_kernel_free(op: LaplaceOperator, X: np.ndarray, kernel_basis: np.ndarray) -> None:
    """Raise unless every column of X is M-orthogonal to the kernel up to 1e-8 relative."""
    if not kernel_basis.shape[1]:
        return
    comp = kernel_basis.T @ (op.M @ X)
    norms = np.sqrt(np.sum((op.M @ X) * X, axis=0))
    rel = (np.linalg.norm(comp, axis=0) / np.maximum(norms, 1e-300)).max()
    if rel > 1e-8:
        raise ValueError(
            f"input has a kernel component; project it out first: relative {rel:.2e} > 1.00e-08"
        )


# Delta^+ stops when |M b - S x| <= PINV_RTOL |M b| in every column.  The residual is M
# times the error of Delta Delta^+ b = b, which the Helmholtz split's recomposition
# check measures: 1e-13 is three decades under its 1e-10 gate and two above the
# rounding floor the refinement settles at (about 1e-15 on balls:1, hopf_link and
# cube_obstacle at res 1 and 2).
PINV_RTOL = 1e-13
# Each step contracts the error on eigenvalue lambda by tau / (lambda + tau), tau the
# shift; 30 steps reach PINV_RTOL for contractions up to 0.36, i.e. lambda_1 >= 1.8 tau
# (3-4 steps sufficed on the eight canned geometries at res 1).  A smaller lambda_1
# lies within 1.8e-6 max_eval of the kernel: report it, do not iterate on.
PINV_MAX_ITER = 30


def pseudo_inverse(op: LaplaceOperator, shift_inverse: spla.LinearOperator,
                   kernel_basis: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Delta^+ b on a kernel-free vector or block, without a spectrum.

    Iterative refinement x <- x + (S - sigma M)^-1 (M b - S x) on one factor
    ``shift_inverse`` = ``_shift_inverse(op, sigma)``: run hodge passes the one its
    partial ``eig`` made, at sigma = -1e-6 ``max_eval``.  b is checked against
    ``kernel_basis`` like :func:`inverse_sqrt_quadrature`, and the result is
    M-projected off it (each solve scales the rounding-size kernel part of b by
    1/|sigma|: about 1e-11 relative on balls:1 and hopf_link without the projection).
    """
    K = kernel_basis
    B = np.atleast_2d(np.asarray(b, dtype=float).T).T
    _check_kernel_free(op, B, K)
    MB = np.asarray(op.M @ B)
    scale = np.maximum(np.linalg.norm(MB, axis=0), 1e-300)
    X = np.zeros_like(B)
    R = MB
    for it in range(1, PINV_MAX_ITER + 1):
        X += shift_inverse @ R
        R = MB - op.S @ X
        res = (np.linalg.norm(R, axis=0) / scale).max()
        if res <= PINV_RTOL:
            break
    else:
        raise AssertionError(
            f"Delta^+ refinement did not converge: residual {res:.2e} > {PINV_RTOL:.2e} "
            f"after {it} iterations"
        )
    X -= K @ (K.T @ (op.M @ X))
    return X[:, 0] if np.asarray(b).ndim == 1 else X


# f(Delta) x by Lanczos stops when, between two checks LANCZOS_CHECK steps apart, no
# function's Krylov coefficients move by more than LANCZOS_TOL relative to their norm.
# The basis is M-orthonormal, so that is the relative change of f(Delta) x in the
# M-norm.  1e-13 is five decades under maxwell's 1e-8 gates and 2.5-5 times the
# rounding floor where the change stops falling: 2-4e-14 for cos(t sqrt(Delta_1)) at
# t = 10 / lambda_min on balls:1 at res 1 and 2 (reached after 120 and 200 steps).
# That floor grows like t sqrt(lambda_max).
LANCZOS_TOL = 1e-13
LANCZOS_CHECK = 10
# The steps grow like t sqrt(lambda_max) as well, about 0.7 t sqrt(lambda_max) for the
# cos term.  The cap bounds each basis Q and reports a run that would need more.  A
# calculus keeps every basis it builds, and the k start vectors of one ``functions``
# call step together: up to k x cap x n_1 doubles (5 x 600 x 14036 doubles, 337 MB, at
# balls:1 res 2) per call, and each basis keeps up to two m x m Ritz eigenvector
# blocks besides.
LANCZOS_MAX_STEPS = 600


@dataclass
class _Krylov:
    """Lanczos state of one start vector x: the M-orthonormal basis rows Q[:m] of the
    Krylov space of M^-1 S from x - P_H x, and T = tridiag(beta, alpha, beta)."""

    Q: np.ndarray  # (cap, n); Q[m] is the next row once computed
    alpha: np.ndarray
    beta: np.ndarray  # beta[j] couples rows j - 1 and j
    nrm: float  # |x - P_H x|_M
    harmonic: np.ndarray  # P_H x, the M-projection onto the kernel basis
    m: int = 0
    invariant: bool = False  # the space is invariant, so T is exact
    # (Ritz frequencies, eigenvectors) of T_m at the latest two checks m, which a
    # repeat call on the basis or a second column on the same basis checks again
    ritz: dict = field(default_factory=dict)


class LanczosCalculus:
    """f(Delta_p) x by Lanczos in the M-inner product.

    ``functions(x, fs)`` deflates x: its M-projection P_H x onto ``kernel_basis``
    takes the value f(0), and the rest starts one M-orthonormal Krylov basis Q of
    M^-1 S (S from the operator's sparse parts, M^-1 by ``ops.mass_factor(p)``),
    reorthogonalised at every step against Q and the kernel basis.  Every
    f(Delta) x = f(0) P_H x + |x - P_H x|_M Q f(T) e_1 comes from it, T the
    tridiagonal Q^T S Q, whose Ritz values stay off 0.  So each f need only be finite
    at 0 (lam^(+-1/2) times a time moment qualifies); one that is not raises
    ``ValueError`` when there is a kernel.  ``functions(X, fss)`` takes an n x k
    block with one function list per column; its k bases step in lockstep, each step
    one product S Q and one multi-column mass solve, while every column keeps its
    own alpha, beta, reorthogonalisation, basis and stopping rule.  A single vector
    is the k = 1 case.  Each distinct start cochain keeps its basis for the
    calculus's lifetime, and later calls extend it only as far as their functions
    need.  It is built from Delta_p and its kernel basis alone.  ``functions`` and the
    mass matrix ``M`` are the call shape :class:`SpectralDecomposition` also
    implements; Delta^+ is :func:`pseudo_inverse`, apart from any calculus.
    """

    def __init__(self, op: LaplaceOperator, kernel_basis: np.ndarray):
        self.op, self.M, self._kernel = op, op.M, kernel_basis
        self._solve_M = op.ops.mass_factor(op.p).solve
        self._bases: dict[bytes, _Krylov] = {}
        self.steps = 0  # Lanczos steps taken, over all start vectors

    def kernel_basis(self) -> np.ndarray:
        return self._kernel

    def functions(self, x: np.ndarray, fs):
        """f(Delta) x for a vector x and function list ``fs``, or for an n x k block x
        with one function list per column (then a list of the columns' results).

        The columns' Krylov bases step in lockstep (:meth:`_step`); each column keeps
        its own stopping rule, and a column whose basis an earlier call built compares
        against the check before its current step first, so a converged one takes no
        step.
        """
        X = np.asarray(x, dtype=float)
        if X.ndim == 1:
            return self.functions(X[:, None], [fs])[0]
        krys = [self._krylov(np.ascontiguousarray(col)) for col in X.T]
        outs = [self._harmonic_part(kry, col_fs) for kry, col_fs in zip(krys, fs)]
        norm = lambda A: np.linalg.norm(A, axis=1)
        # per open column: the coefficients at its last check, and their change
        prev, change = {}, {}
        for i, kry in enumerate(krys):
            if kry.nrm:
                last = max(kry.m - 1, 0) // LANCZOS_CHECK * LANCZOS_CHECK  # before kry.m
                prev[i] = self._coefficients(kry, last, fs[i]) if last else None
                change[i] = np.inf
        while prev:
            for i in list(prev):
                kry, m, cap = krys[i], krys[i].m, len(krys[i].Q)
                if not m:
                    continue
                Y = self._coefficients(kry, m, fs[i])
                if prev[i] is not None:
                    D = Y.copy()
                    D[:, : prev[i].shape[1]] -= prev[i]
                    change[i] = (norm(D) / np.maximum(norm(Y), 1e-300)).max()
                if kry.invariant or change[i] <= LANCZOS_TOL:
                    self._check_basis(kry.Q[_sample(m)].T)
                    outs[i] += Y @ kry.Q[:m]
                    del prev[i]
                    continue
                if m == cap:
                    raise AssertionError(
                        f"Lanczos f(Delta) x did not converge: coefficient change "
                        f"{change[i]:.2e} > {LANCZOS_TOL:.2e} after {cap} steps"
                    )
                prev[i] = Y
            # every open column is below its cap; a kept basis shared by two steps once
            live = list({id(krys[i]): krys[i] for i in prev}.values())
            while live:
                self._step(live)
                live = [
                    kry for kry in live
                    if not kry.invariant and kry.m < len(kry.Q) and kry.m % LANCZOS_CHECK
                ]
        return outs

    def _harmonic_part(self, kry: _Krylov, fs) -> np.ndarray:
        """Rows f(0) P_H x, (len(fs), n); raises for an f not finite at 0 if there is
        a kernel."""
        out = np.zeros((len(fs), self.op.n))
        if self._kernel.shape[1]:
            f0 = np.array([f(np.zeros(1))[0] for f in fs])
            if not np.all(np.isfinite(f0)):
                raise ValueError(
                    "operator function is not finite at 0, where the kernel needs its value"
                )
            out += np.outer(f0, kry.harmonic)
        return out

    def _check_basis(self, V: np.ndarray) -> None:
        """Raise unless the sampled basis columns V are M-orthonormal and M-orthogonal
        to the kernel basis, each to 1e-10 per column."""
        MV = self.op.M @ V
        _check_orthonormal(V, MV, "Lanczos basis")
        leak, tol = np.linalg.norm(self._kernel.T @ MV), 1e-10 * max(1.0, V.shape[1])
        if leak > tol:
            raise AssertionError(
                f"Lanczos basis not M-orthogonal to the kernel: {leak:.2e} > {tol:.2e}"
            )

    def _krylov(self, x: np.ndarray) -> _Krylov:
        """The Lanczos state of start vector x: kept, or new with its first row."""
        key = x.tobytes()
        if key in self._bases:
            return self._bases[key]
        op, K = self.op, self._kernel
        cap = min(LANCZOS_MAX_STEPS, op.n)
        xp, harmonic = x, np.zeros(op.n)
        for _ in range(2):  # twice, like each step: x may be harmonic up to rounding
            h = K @ (K.T @ (op.M @ xp))
            xp, harmonic = xp - h, harmonic + h
        nrm = np.sqrt(xp @ (op.M @ xp))
        kry = _Krylov(np.empty((cap, op.n)), np.zeros(cap), np.zeros(cap), nrm, harmonic)
        if nrm:
            kry.Q[0] = xp / nrm
        self._bases[key] = kry
        return kry

    def _step(self, krys: list[_Krylov]) -> None:
        """One Lanczos step of each basis in ``krys``: each T grows by one row, and
        each next basis row is computed.

        The bases share one product S Q and one mass solve on the block of their
        current rows, and one product M W per Gram-Schmidt pass; the rest is per
        basis.  M Q is not stored (it would double the basis memory): each M-inner
        product with a basis takes one product M w instead.
        """
        op, K = self.op, self._kernel
        SQ = op.S @ np.array([kry.Q[kry.m] for kry in krys]).T
        W = np.ascontiguousarray(self._solve_M(SQ).T)  # row i is basis i's next vector
        SQ = np.ascontiguousarray(SQ.T)
        for kry, w, sq in zip(krys, W, SQ):
            Q, j = kry.Q, kry.m
            kry.alpha[j] = Q[j] @ sq
            w -= kry.alpha[j] * Q[j] + (kry.beta[j] * Q[j - 1] if j else 0.0)
        MW = self._mass_rows(W)
        # Gram-Schmidt against Q and the kernel; a second pass where the first cancelled
        # more than half of |w|_M^2, as it does when the space nears invariance
        # (Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30, 1976)
        todo = list(range(len(krys)))
        for _ in range(2):
            before = [W[i] @ MW[i] for i in todo]
            for i in todo:
                Q, j = krys[i].Q, krys[i].m
                W[i] -= (Q[: j + 1] @ MW[i]) @ Q[: j + 1] + K @ (K.T @ MW[i])
            MW[todo] = self._mass_rows(W[todo])
            todo = [i for i, b in zip(todo, before) if W[i] @ MW[i] <= 0.5 * b]
            if not todo:
                break
        for kry, w, mw in zip(krys, W, MW):
            b = np.sqrt(max(w @ mw, 0.0))
            m = kry.m = kry.m + 1
            kry.invariant = m == op.n - K.shape[1] or b == 0.0
            if not kry.invariant and m < len(kry.Q):
                kry.Q[m], kry.beta[m] = w / b, b
        self.steps += len(krys)

    def _mass_rows(self, W: np.ndarray) -> np.ndarray:
        """M w for each row w of W, as rows."""
        return np.ascontiguousarray((self.op.M @ W.T).T)

    @staticmethod
    def _coefficients(kry: _Krylov, m: int, fs) -> np.ndarray:
        """Rows |x - P_H x|_M f(T_m) e_1 for the leading m x m block T_m of T."""
        if m not in kry.ritz:
            theta, U = sla.eigh_tridiagonal(kry.alpha[:m], kry.beta[1:m])
            if len(kry.ritz) == 2:
                del kry.ritz[min(kry.ritz)]
            kry.ritz[m] = np.sqrt(np.maximum(theta, 0.0)), U
        lam, U = kry.ritz[m]
        return kry.nrm * (np.array([f(lam) for f in fs]) * U[0]) @ U.T


def _norm_estimate(op: LaplaceOperator) -> float:
    """Meant as an upper bound on the largest generalized eigenvalue, not a proven one:
    1.2 times ARPACK's largest-magnitude estimate at ``tol=1e-2``, or if that does not
    converge, 1.5 times a 30-step power-iteration norm |M^-1 S x| (with a warning)."""
    Minv = spla.LinearOperator(op.M.shape, matvec=op.ops.mass_factor(op.p).solve, dtype=float)
    try:
        val = spla.eigsh(
            op.S, k=1, M=op.M, Minv=Minv, which="LM", return_eigenvectors=False, maxiter=200,
            tol=1e-2, v0=_start_vector(op.n),
        )
        return float(abs(val[0])) * 1.2
    except spla.ArpackNoConvergence as exc:
        rng = np.random.default_rng(0)
        x = rng.standard_normal(op.n)
        for _ in range(30):
            z = Minv @ (op.S @ x)
            nz = np.linalg.norm(z)
            x = z / nz
        bound = nz * 1.5
        warnings.warn(
            f"norm estimate of the degree-{op.p} Laplacian (n={op.n}): ARPACK did not "
            f"converge ({exc}); using the power-iteration bound {bound:.6e}",
            RuntimeWarning,
            stacklevel=2,
        )
        return bound


def _sample(k: int) -> np.ndarray:
    """At most 12 column indices spread over 0..k-1."""
    return np.unique(np.linspace(0, k - 1, min(k, 12)).astype(int))


def _check_orthonormal(V: np.ndarray, MV: np.ndarray, what: str) -> None:
    """Raise unless V^T M V = 1 on sampled columns, to 1e-10 per column (``MV`` is M V)."""
    idx = _sample(V.shape[1])
    G = V[:, idx].T @ MV[:, idx]
    orth, orth_tol = np.linalg.norm(G - np.eye(len(idx))), 1e-10 * max(1.0, len(idx))
    if orth > orth_tol:
        raise AssertionError(f"{what} not M-orthonormal: {orth:.2e} > {orth_tol:.2e}")


def _check_residuals(op: LaplaceOperator, dec: SpectralDecomposition) -> None:
    if dec.vectors.shape[1] == 0:
        return
    idx = _sample(dec.vectors.shape[1])
    V = dec.vectors[:, idx]
    MV = op.M @ V
    _check_orthonormal(V, MV, "eigenvectors")
    R = op.S @ V - MV * dec.evals[idx][None, :]
    res, res_tol = np.linalg.norm(R, axis=0).max(), 1e-8 * max(dec.max_eval, 1e-300)
    if res > res_tol:
        raise AssertionError(f"eigenpair residual {res:.2e} > {res_tol:.2e}")


# -- resolvent quadrature for the inverse square root ------------------------------


def quadrature_rule(panels_per_side: int = 4, nodes: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Graded composite Gauss-Legendre nodes on theta in (0, pi/2)."""
    half = np.pi / 2
    brks = {0.0, half}
    for j in range(1, panels_per_side + 1):
        brks.add(half * 2.0 ** -j)
        brks.add(half * (1 - 2.0 ** -j))
    brks = np.array(sorted(brks))
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    th, w = [], []
    for a, b in zip(brks[:-1], brks[1:]):
        th.append(0.5 * (a + b) + 0.5 * (b - a) * xs)
        w.append(0.5 * (b - a) * ws)
    return np.concatenate(th), np.concatenate(w)


def _spectrum_bounds(op: LaplaceOperator, kernel_basis: np.ndarray) -> tuple[float, float]:
    """(lowest eigenvalue above the kernel, max_eval) from ``eig`` of the k + 1 lowest pairs."""
    k = kernel_basis.shape[1]
    dec = eig(op, k + 1)
    return max(float(dec.evals[k]), dec.max_eval * 1e-14), dec.max_eval


def inverse_sqrt_quadrature(
    op: LaplaceOperator,
    x: np.ndarray,
    panels: tuple[int, int] | None = None,
    kernel_basis: np.ndarray | None = None,
    spectrum_bounds: tuple[float, float] | None = None,
) -> np.ndarray:
    """Delta^(-1/2) x through the resolvent integral (2/pi) int (Delta+l^2)^-1 dl.

    Requires x orthogonal to the kernel, up to a relative component of 1e-8; x may be
    a block of columns.  Each node is one sparse factorization, ``_shift_inverse(op, -l^2)``.
    """
    X = np.atleast_2d(np.asarray(x, dtype=float).T).T
    if kernel_basis is None:
        kernel_basis = np.zeros((op.n, 0))
    _check_kernel_free(op, X, kernel_basis)
    if spectrum_bounds is None:
        spectrum_bounds = _spectrum_bounds(op, kernel_basis)
    lo, hi = spectrum_bounds
    kappa = hi / lo
    if panels is None:
        panels = (4, 8) if kappa < 3e4 else (5, 12)
    th, w = quadrature_rule(*panels)
    c = np.sqrt(np.sqrt(lo * hi))  # scale on lambda: lambda = c tan(theta)
    lam = c * np.tan(th)
    dl = c / np.cos(th) ** 2
    MX = np.asarray(op.M @ X)
    out = np.zeros_like(X)
    for wi, li, dli in zip(w, lam, dl):
        out += (2.0 / np.pi) * wi * dli * (_shift_inverse(op, -li * li) @ MX)
    return out[:, 0] if np.asarray(x).ndim == 1 else out


# -- the finite-rank modification of the kernel projector ---------------------------


@dataclass
class ProjectorQ:
    """Q_eps = 1 - Q_{0,eps}: the cutoff-modified projector on 1-forms."""

    eps: float
    psi_basis: np.ndarray  # (n, L) M-orthonormal harmonic basis, last column distinguished
    psi_eps: np.ndarray
    M: sp.csr_matrix
    cutoff_meta: dict

    @property
    def L(self) -> int:
        return self.psi_basis.shape[1]

    def q0_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """Q0 = left @ right with left (n, L), right (L, n)."""
        left = np.column_stack([self.psi_basis[:, :-1], self.psi_eps])
        right = (self.M @ self.psi_basis).T
        return left, np.asarray(right)

    def apply_q0(self, x: np.ndarray) -> np.ndarray:
        left, right = self.q0_factors()
        return left @ (right @ x)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return x - self.apply_q0(x)

    def q0_matrix(self) -> np.ndarray:
        left, right = self.q0_factors()
        return left @ right

    def matrix(self) -> np.ndarray:
        return np.eye(self.M.shape[0]) - self.q0_matrix()

    def pairings(self) -> np.ndarray:
        """<psi_eps, psi_k>; equals the k=L unit vector up to solver precision."""
        return (self.M @ self.psi_basis).T @ self.psi_eps


def smooth_step(s: np.ndarray) -> np.ndarray:
    """C^2 polynomial step: 0 for s<=0, 1 for s>=1."""
    t = np.clip(s, 0.0, 1.0)
    return t * t * t * (10 + t * (-15 + 6 * t))


def radial_cutoff(r: np.ndarray, eps: float, r_plateau: float, r_zero: float) -> np.ndarray:
    """chi_eps(r) = chi(eps r) with chi = 1 on [0, r_plateau], 0 beyond r_zero."""
    s = eps * np.asarray(r)
    return 1.0 - smooth_step((s - r_plateau) / (r_zero - r_plateau))


def build_Q_eps(
    hb: HarmonicBasis,
    ops: DecOperators,
    eps: float,
    center: np.ndarray,
    r_plateau: float,
    r_zero: float,
) -> ProjectorQ:
    """Assemble Q_eps from the distinguished harmonic basis ``hb`` of ker Delta_1.

    The last vector of ``hb`` is du/|du|, u the capacity potential ``hb.potential``
    (full vertex cochain); the rank-one replacement of that vector by d(chi u)/|du|
    is psi_eps.  The pairings of psi_eps with the basis must lie within 0.2 of the
    last unit vector.
    """
    cplx = ops.complex
    if cplx.dim != 3 or hb.p != 1:
        raise ValueError("Q_eps lives on 1-forms of a 3-complex")
    if hb.potential is None:
        raise ValueError(
            "Q_eps needs a harmonic basis with a capacity potential: no obstacle boundary"
        )
    u = hb.potential
    d0_full = ops.d_full[0]
    du = (d0_full @ u)[ops.kept[1]]
    u_scale = np.sqrt(du @ (ops.mass(1) @ du))  # normalise so d u is the unit mode
    nodes = cplx.simplices[0][:, 0]
    r = np.linalg.norm(cplx.vertices[nodes] - center[None, :], axis=1)
    chi = radial_cutoff(r, eps, r_plateau, r_zero)
    psi_eps = (d0_full @ (chi * u / u_scale))[ops.kept[1]]
    q = ProjectorQ(
        eps=eps,
        psi_basis=hb.vectors,
        psi_eps=psi_eps,
        M=ops.mass(1),
        cutoff_meta={"center": center, "r_plateau": r_plateau, "r_zero": r_zero},
    )
    pair = q.pairings()
    target = np.zeros(hb.L)
    target[-1] = 1.0
    dev = np.linalg.norm(pair - target)
    if dev > 0.2:
        raise ValueError(
            "psi_eps pairing degenerate; enlarge the domain or shrink the cutoff: "
            f"|pairings - e_L| {dev:.2e} > 2.00e-01"
        )
    return q
