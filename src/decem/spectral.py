"""Hodge Laplacians, eigendecompositions and spectral operator functions.

Delta_p has one form (:class:`LaplaceOperator`): a sparse up-term, the mass M
and a factored down-term K^T M_{p-1}^-1 K.  ``eig(op, "all")`` is a dense ``eigh``
of the pencil (up, M), the only dense form of Delta_p, completed on its kernel by
:func:`kernel_block`; on 1-cochains (:func:`_gauged_eigh`) the pencil splits into
the blocks of the mesh's symmetry group, and a tree-cotree gauge takes the exact
forms out of each block's ``eigh`` first.  ``eig(op, k)`` is ARPACK
shift-invert for the k lowest pairs, the kernel and lambda_min among them.  A
partial decomposition never evaluates operator functions itself: its kernel basis
goes to :class:`LanczosCalculus` and to ``hodge.harmonic_basis``.
``SpectralDecomposition.lam`` is the one source of frequencies of a complete system:
exactly 0 on the kernel.  Without a spectrum, f(Delta) x comes from
:class:`LanczosCalculus` on Delta_p and its kernel basis: the kernel part of x takes
f(0), and one Krylov basis of the rest serves every f that is finite at 0, with an
a-posteriori stopping rule; the bases of a block of start vectors step in lockstep,
sharing each sparse product and each mass solve.  Its engine :class:`Lanczos` (steps
and stopping rule) also takes the stress decay table's norm of D D^T.  The dense and
the Lanczos calculus have the call shape ``functions(x, fs)`` (or ``functions(X,
fss)`` on an n x k block, one function list per column) and the mass matrix ``M``.
The dense ``SpectralDecomposition.pseudo_inverse`` (Delta^+) is a test oracle of the
Helmholtz split, which ``decem.hodge`` makes without it.  Delta^(-1/2) is
:func:`inverse_sqrt_quadrature`.  Every sparse shift-invert and quadrature node
factors the quasi-definite [[up - sigma M, K^T], [K, -W]] (:func:`_shift_inverse`),
never S - sigma M; each mass matrix is factored once, by
``DecOperators.mass_factor``.  Q_eps (:func:`build_Q_eps`) takes the distinguished
harmonic basis that ``hodge.harmonic_basis`` builds.
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
    # per column, the index m of its symmetry block in ops.character_bases(p), -1 where
    # kernel_block mixes the blocks; eig(op, "all") fills it on 1-cochains and leaves
    # None where it runs one dense eigh (other degrees) or a partial eig
    characters: np.ndarray | None = None

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


def eig(op: LaplaceOperator, count="all"):
    """Eigendecomposition of the generalized problem; ``count`` is 'all' or k lowest.

    'all': dense ``eigh`` of the pencil (up, M), :func:`kernel_block`, stable sort.
    On 1-cochains with kept vertices (:func:`_gauged_eigh`) the pencil splits into
    one block per character of the mesh's symmetry group (one block without
    symmetry), and up = d_1^T M_2 d_1 annihilates the exact forms, which are gauged
    out of each block: the ``eigh``s run on n_1 - rank d_0 cotree rows in all, and the
    exact part of the kernel basis comes as d_0 L^-T with pencil eigenvalue 0.  The
    kernel count, :func:`kernel_block`, the negative-eigenvalue check and the
    residual checks then run on the merged, lifted system as for every degree.  The
    block of each column is ``characters`` (-1 on a kernel that kernel_block rotates).
    A partial eig is ARPACK shift-invert on (S - sigma M)^-1, sigma = -1e-6 times
    :func:`_norm_estimate`, which :func:`_shift_inverse` factors.
    """
    n, chars = op.n, None
    if count == "all":
        if op.p == 1 and op.ops.n(0):
            evals, vecs, chars = _gauged_eigh(op)
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
            if chars is not None:
                chars[:kd] = -1
                chars = chars[order]
        max_eval = float(evals[-1]) if n else 0.0
    else:
        k = int(count)
        if k >= n - 1:
            return eig(op, "all")
        max_eval = _norm_estimate(op)
        sigma = -1e-6 * max_eval
        evals, vecs = spla.eigsh(
            op.S, k=k, M=op.M, sigma=sigma, which="LM", OPinv=_shift_inverse(op, sigma),
            v0=_start_vector(op.n),
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
        characters=chars,
    )
    _check_residuals(op, dec)
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


# columns per block where an n x n product or copy goes block by block (the lift in
# _gauged_block, stress's hodge_system(left), kernel_trace and t0k_check), so its
# n x block temporaries stay small
COLUMN_BLOCK = 256


def _gauged_eigh(op: LaplaceOperator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All eigenpairs of the pencil (up, M) on 1-cochains, one symmetry block at a time,
    with the exact forms gauged out of each block's dense ``eigh``.

    up and M commute with the mesh's symmetry group and d_0 intertwines it, so on the
    character bases B_m of ``ops.character_bases`` the pencil is block diagonal, and
    the exact forms of block m are spanned by d_0 B0_m (Bossavit, *Comput. Methods
    Appl. Mech. Engrg.* 56, 1986).  :func:`_gauged_block` solves each block into its
    own n_m columns of one n x n Fortran-ordered array X; a mesh without symmetry is
    one block, B = 1.  The columns are then permuted in place, so that X holds the
    M-orthonormal vectors of the eigenvalues [0 (r times, r = rank d_0), the pencil's
    on the gauged blocks in ascending order]: first the exact ones, block by block,
    then the rest.  Beside X, only one block's arrays are alive at a time.  Returns
    the eigenvalues, X and the character index m of each column's block.
    """
    n, d0 = op.n, op.ops.d(0)
    X = np.empty((n, n), order="F")
    chars = np.empty(n, dtype=np.int64)  # the block of each column of X as solved
    exact, coexact, evals, start = [], [], [], 0
    for m, (B, B0) in enumerate(zip(op.ops.character_bases(1), op.ops.character_bases(0))):
        nb = B.shape[1]
        if nb:
            r, evals_b = _gauged_block(op, B, B.T @ d0 @ B0, X[:, start : start + nb])
            exact.append(np.arange(start, start + r))
            coexact.append(np.arange(start + r, start + nb))
            evals.append(evals_b)
            chars[start : start + nb] = m
            start += nb
    evals = np.concatenate(evals)
    order = np.argsort(evals, kind="stable")
    exact = np.concatenate(exact)
    source = np.concatenate([exact, np.concatenate(coexact)[order]])
    _permute_columns(X, source)
    return np.concatenate([np.zeros(len(exact)), evals[order]]), X, chars[source]


def _permute_columns(X: np.ndarray, source: np.ndarray) -> None:
    """X[:, k] <- X[:, source[k]] for every k, in place, one cycle at a time with one
    column of scratch."""
    done = source == np.arange(len(source))
    for k in np.flatnonzero(~done):
        if done[k]:
            continue
        first, cur = X[:, k].copy(), k
        while source[cur] != k:
            X[:, cur] = X[:, source[cur]]
            done[cur], cur = True, source[cur]
        X[:, cur], done[cur] = first, True


def _gauged_block(op: LaplaceOperator, B: sp.spmatrix, D: sp.spmatrix,
                  X: np.ndarray) -> tuple[int, np.ndarray]:
    """The tree-cotree gauged ``eigh`` of the pencil (B^T up B, B^T M B) of one symmetry
    block (Gross & Kotiuga, *Electromagnetic Theory and Computation*, 2004).

    D = B^T d_0 B0 spans the block's exact forms; each row has at most two nonzeros
    (an orbit of edges meets at most two orbits of vertices), so D is the incidence of
    a graph whose one-entry rows join the root, and :func:`_spanning_forest` gauges it
    as it does d_0.  With tree rows T, cotree rows C, G = D[:, cols] of rank r = |T|
    and H = G^T M G = L L^T (M, up the block's), every y with G^T M y = 0 is
    y = E_C z - G H^-1 G_C z, G_C = (G^T M)[:, C], and on those y the pencil is
    (up_CC, M~), M~ = M_CC - G_C^T H^-1 G_C.  So ``eigh`` runs on the c cotree rows,
    and its M~-orthonormal z lift to M-orthonormal B y.  Writes [B G L^-T, the lifts]
    into the n x (r + c) Fortran-contiguous X and returns (r, the c eigenvalues).
    up_CC is written into the first c^2 entries of X, where ``eigh`` leaves its
    vectors; the lift then moves them out column block by column block, last first,
    so the block makes no n x n array of its own.
    """
    D = D.tocsr()
    # D's entries sum equal terms +-1/sqrt(|edge orbit| |vertex orbit|) >= 1/8: drop
    # the rounding left where they cancel
    D.data[np.abs(D.data) < 1e-12] = 0.0
    D.eliminate_zeros()
    up, M = (B.T @ op.up @ B).tocsr(), (B.T @ op.M @ B).tocsr()
    tree, cols = _spanning_forest(D)
    r, c = len(cols), B.shape[1] - len(cols)
    cot = np.ones(B.shape[1], dtype=bool)
    cot[tree] = False
    G = D[:, cols]
    GM = (G.T @ M).tocsc()
    L = sla.cholesky((GM @ G).toarray(), lower=True)
    Z = sla.solve_triangular(L, GM[:, cot].toarray(), lower=True)  # L^-1 G_C
    A = X.reshape(-1, order="F")[: c * c].reshape((c, c), order="F")
    A.fill(0.0)
    up[cot][:, cot].toarray(out=A)
    Mt = M[cot][:, cot].toarray(order="F")
    if r:  # M~ = M_CC - Z^T Z in place, on the lower triangle that eigh reads
        Mt = sla.blas.dsyrk(-1.0, Z, beta=1.0, c=Mt, trans=1, lower=1, overwrite_c=1)
    evals, Y = sla.eigh(A, Mt, overwrite_a=True, overwrite_b=True)
    del A, Mt
    W = sla.solve_triangular(L, Z @ Y, lower=True, trans="T")  # H^-1 G_C Y
    # column j of Y ends before column r + j of X starts, so blocks move last first
    for j in reversed(range(0, c, COLUMN_BLOCK)):
        lift = -(G @ W[:, j : j + COLUMN_BLOCK])
        lift[cot] += Y[:, j : j + COLUMN_BLOCK]
        X[:, r + j : r + j + COLUMN_BLOCK] = B @ lift
    X[:, :r] = B @ sla.solve_triangular(L, G.T.toarray(), lower=True).T
    return r, evals


def _start_vector(n: int) -> np.ndarray:
    """Fixed-seed start vector of ARPACK and of the stress decay table's Lanczos (not
    ones: symmetry can hide eigenvectors)."""
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


# Lanczos stops when, between two checks LANCZOS_CHECK steps apart, a basis's measure
# moves by at most LANCZOS_TOL relative to its norm, or when its Krylov space is
# invariant.  For f(Delta) x the measure is each function's Krylov coefficients: the
# basis is M-orthonormal, so that is the relative change of f(Delta) x in the M-norm.
# 1e-13 is five decades under maxwell's 1e-8 gates and 2.5-5 times the rounding floor
# where the change stops falling: 2-4e-14 for cos(t sqrt(Delta_1)) at t = 10 / lambda_min
# on balls:1 at res 1 and 2 (reached after 120 and 200 steps).  That floor grows like
# t sqrt(lambda_max).  The stress decay table's measure is the top Ritz value of D D^T,
# ten times under the 1e-12 its tests ask of the norm; a grid point takes 19-40 steps in
# each symmetry block on the eight canned geometries at res 1 (balls:1 20-30 on blocks
# of 130-151 of its 562 window edges).
LANCZOS_TOL = 1e-13
LANCZOS_CHECK = 10
# The steps grow like t sqrt(lambda_max) as well, about 0.7 t sqrt(lambda_max) for the
# cos term.  The cap bounds each basis Q and reports a run that would need more.  A
# calculus keeps every basis it builds, and the k start vectors of one ``functions``
# call step together: up to k x cap x n_1 doubles (5 x 600 x 14036 doubles, 337 MB, at
# balls:1 res 2) per call, and each basis keeps up to two m x m Ritz eigenvector
# blocks besides.
LANCZOS_MAX_STEPS = 600


@dataclass(eq=False)
class _Krylov:
    """Lanczos state of one start vector x: the M-orthonormal basis rows Q[:m] of the
    Krylov space from x - P_H x, and T = tridiag(beta, alpha, beta)."""

    Q: np.ndarray  # (rows, n), rows <= cap; Q[m] is the next row once computed
    alpha: np.ndarray  # (cap,), cap = min(LANCZOS_MAX_STEPS, n)
    beta: np.ndarray  # beta[j] couples rows j - 1 and j
    nrm: float  # |x - P_H x|_M
    harmonic: np.ndarray  # P_H x, the M-projection onto the kernel basis
    m: int = 0
    invariant: bool = False  # the space is invariant, so T is exact
    # (Ritz frequencies, eigenvectors) of T_m at the latest two checks m, which a
    # repeat call on the basis or a second column on the same basis checks again
    ritz: dict = field(default_factory=dict)


class Lanczos:
    """Lockstep Lanczos in the M-inner product, deflated against an M-orthonormal
    kernel basis: ``decem``'s one Krylov engine.  ``apply(Q, krys)`` maps the n x k
    block of the current rows of the bases ``krys`` to (A Q, M^-1 A Q), A symmetric; a
    basis may have an A of its own (the stress decay's D(lam) D(lam)^T, M = 1)."""

    def __init__(self, apply, M: sp.spmatrix, kernel_basis: np.ndarray):
        self._apply, self.M, self._kernel = apply, M, kernel_basis
        self.steps = 0  # Lanczos steps taken, over all start vectors

    def start(self, x: np.ndarray, rows: int | None = None) -> _Krylov:
        """The state of start vector x, with its first row: x is M-projected off the
        kernel basis and normalised.  Q is allocated at the cap, or with ``rows`` rows
        that double as steps need, up to the cap."""
        M, K, n = self.M, self._kernel, self.M.shape[0]
        cap = min(LANCZOS_MAX_STEPS, n)
        xp, harmonic = x, np.zeros(n)
        for _ in range(2):  # twice, like each step: x may be harmonic up to rounding
            h = K @ (K.T @ (M @ xp))
            xp, harmonic = xp - h, harmonic + h
        nrm = np.sqrt(xp @ (M @ xp))
        rows = min(rows or cap, cap)
        kry = _Krylov(np.empty((rows, n)), np.zeros(cap), np.zeros(cap), nrm, harmonic)
        if nrm:
            kry.Q[0] = xp / nrm
        return kry

    def converge(self, krys: list[_Krylov], measure, quantity: str, subject) -> list:
        """Step the columns' bases ``krys`` (columns may share one) in lockstep until the
        rows of each column's ``measure(i, kry, m)`` on T_m move by at most LANCZOS_TOL
        relative between checks, or its space is invariant (a kept basis compares with its
        check before first).  Returns per column (m, measure) at convergence, None for x
        in the kernel; at the cap raises with ``subject(i)``, ``quantity`` and the values."""
        norm = lambda A: np.linalg.norm(A, axis=1)
        done = [None] * len(krys)
        # per open column: the measure at its last check, and its change
        prev, change = {}, {}
        for i, kry in enumerate(krys):
            if kry.nrm:
                last = max(kry.m - 1, 0) // LANCZOS_CHECK * LANCZOS_CHECK  # before kry.m
                prev[i] = measure(i, kry, last) if last else None
                change[i] = np.inf
        while prev:
            for i in list(prev):
                kry, m, cap = krys[i], krys[i].m, len(krys[i].alpha)
                if not m:
                    continue
                Y = measure(i, kry, m)
                if prev[i] is not None:
                    D = Y.copy()
                    D[:, : prev[i].shape[1]] -= prev[i]
                    change[i] = (norm(D) / np.maximum(norm(Y), 1e-300)).max()
                if kry.invariant or change[i] <= LANCZOS_TOL:
                    self._check_basis(kry.Q[_sample(m)].T)
                    done[i] = m, Y
                    del prev[i]
                    continue
                if m == cap:
                    raise AssertionError(
                        f"{subject(i)} did not converge: {quantity} change "
                        f"{change[i]:.2e} > {LANCZOS_TOL:.2e} after {cap} steps"
                    )
                prev[i] = Y
            # every open column is below its cap; a kept basis shared by two steps once
            live = list({id(krys[i]): krys[i] for i in prev}.values())
            while live:
                self.step(live)
                live = [
                    kry for kry in live
                    if not kry.invariant and kry.m < len(kry.alpha) and kry.m % LANCZOS_CHECK
                ]
        return done

    def _check_basis(self, V: np.ndarray) -> None:
        """Raise unless the sampled basis columns V are M-orthonormal and M-orthogonal
        to the kernel basis, each to 1e-10 per column."""
        MV = self.M @ V
        _check_orthonormal(V, MV, "Lanczos basis")
        leak, tol = np.linalg.norm(self._kernel.T @ MV), 1e-10 * max(1.0, V.shape[1])
        if leak > tol:
            raise AssertionError(
                f"Lanczos basis not M-orthogonal to the kernel: {leak:.2e} > {tol:.2e}"
            )

    def step(self, krys: list[_Krylov]) -> None:
        """One Lanczos step of each basis in ``krys``: each T grows by one row, and
        each next basis row is computed.

        The bases share one ``apply`` on the block of their current rows, and one
        product M W per Gram-Schmidt pass; the rest is per basis.  M Q is not stored
        (it would double the basis memory): each M-inner product with a basis takes
        one product M w instead.
        """
        K, n = self._kernel, self.M.shape[0]
        AQ, W = self._apply(np.array([kry.Q[kry.m] for kry in krys]).T, krys)
        # row i is basis i's next vector (AQ may alias W: each row is read before it changes)
        W = np.ascontiguousarray(W.T)
        AQ = np.ascontiguousarray(AQ.T)
        for kry, w, aq in zip(krys, W, AQ):
            Q, j = kry.Q, kry.m
            kry.alpha[j] = Q[j] @ aq
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
            kry.invariant = m == n - K.shape[1] or b == 0.0
            if not kry.invariant and m < len(kry.alpha):
                if m == len(kry.Q):  # double, up to the cap
                    grow = np.empty((min(m, len(kry.alpha) - m), n))
                    kry.Q = np.concatenate([kry.Q, grow])
                kry.Q[m], kry.beta[m] = w / b, b
        self.steps += len(krys)

    def _mass_rows(self, W: np.ndarray) -> np.ndarray:
        """M w for each row w of W, as rows."""
        return np.ascontiguousarray((self.M @ W.T).T)


class LanczosCalculus(Lanczos):
    """f(Delta_p) x by Lanczos in the M-inner product.

    ``functions(x, fs)`` deflates x: its M-projection P_H x onto ``kernel_basis``
    takes the value f(0), and the rest starts one M-orthonormal Krylov basis Q of
    M^-1 S (S from the operator's sparse parts, M^-1 by ``ops.mass_factor(p)``),
    reorthogonalised at every step against Q and the kernel basis.  Every
    f(Delta) x = f(0) P_H x + |x - P_H x|_M Q f(T) e_1 comes from it, T the
    tridiagonal Q^T S Q, whose Ritz values stay off 0.  So each f need only be finite
    at 0 (lam^(+-1/2) times a time moment qualifies); one that is not raises
    ``ValueError`` when there is a kernel.  ``functions(X, fss)`` takes an n x k
    block with one function list per column; its k bases step in lockstep on the
    :class:`Lanczos` engine, each step one product S Q and one multi-column mass
    solve, while every column keeps its own alpha, beta, reorthogonalisation, basis
    and stopping rule (its measure: the coefficients f(T) e_1).  A single vector is
    the k = 1 case.  Each distinct start cochain keeps its basis for the calculus's
    lifetime, and later calls extend it only as far as their functions need.  It is
    built from Delta_p and its kernel basis alone.  ``functions`` and the mass matrix
    ``M`` are the call shape :class:`SpectralDecomposition` also implements.
    """

    def __init__(self, op: LaplaceOperator, kernel_basis: np.ndarray):
        solve_M = op.ops.mass_factor(op.p).solve

        def apply(Q, _krys):
            SQ = op.S @ Q
            return SQ, solve_M(SQ)

        super().__init__(apply, op.M, kernel_basis)
        self._bases: dict[bytes, _Krylov] = {}

    def kernel_basis(self) -> np.ndarray:
        return self._kernel

    def functions(self, x: np.ndarray, fs):
        """f(Delta) x for a vector x and function list ``fs``, or for an n x k block x
        with one function list per column (then a list of the columns' results).  Each
        column's rows come from its basis at the step where it converged, which a basis
        shared with a later column may have passed."""
        X = np.asarray(x, dtype=float)
        if X.ndim == 1:
            return self.functions(X[:, None], [fs])[0]
        krys = [self._krylov(np.ascontiguousarray(col)) for col in X.T]
        outs = [self._harmonic_part(kry, col_fs) for kry, col_fs in zip(krys, fs)]
        measure = lambda i, kry, m: self._coefficients(kry, m, fs[i])
        done = self.converge(krys, measure, "coefficient", lambda i: "Lanczos f(Delta) x")
        for out, kry, res in zip(outs, krys, done):
            if res:
                out += res[1] @ kry.Q[: res[0]]
        return outs

    def _harmonic_part(self, kry: _Krylov, fs) -> np.ndarray:
        """Rows f(0) P_H x, (len(fs), n); raises for an f not finite at 0 if there is
        a kernel."""
        out = np.zeros((len(fs), self.M.shape[0]))
        if self._kernel.shape[1]:
            f0 = np.array([f(np.zeros(1))[0] for f in fs])
            if not np.all(np.isfinite(f0)):
                raise ValueError(
                    "operator function is not finite at 0, where the kernel needs its value"
                )
            out += np.outer(f0, kry.harmonic)
        return out

    def _krylov(self, x: np.ndarray) -> _Krylov:
        """The Lanczos state of start vector x: kept, or new with its first row."""
        key = x.tobytes()
        if key not in self._bases:
            self._bases[key] = self.start(x)
        return self._bases[key]

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
