"""Renormalised stress-energy between the obstacle state and the reference.

The operator differences D1 = (Delta^-1/2 - Delta0^-1/2) delta~ d on 1-forms
and D2 = d (Delta^-1/2 - Delta0^-1/2) delta~ on 2-forms only probe the
coexact block of the Laplacian, where Delta coincides with delta~ d.  Both
sides are therefore built from the generalized pencil (d^T M2 d, M1): zero
modes and exact forms sit in its kernel and drop out exactly, which realizes
the kernel-exclusion policy of the continuum formula.  Each side's pencil is
eigensolved by ``spectral.eig`` (with its residual checks), which splits it into
the blocks of the mesh's symmetry group and, in each, hands the exact forms d0 C^0
to the kernel directly by a tree-cotree gauge, so the dense ``eigh``s see only the
cotree rows of each block; the second path is
``spectral.inverse_sqrt_quadrature`` on the same pencil.  The decay table
completes each side to Delta_1 with ``spectral.kernel_block``, as ``eig`` does,
and takes the norm of the windowed resolvent difference one symmetry block at a
time: the window is a union of orbits of the group both sides share, so the
difference is block diagonal in the window's character bases, and block m reads
only the kernel columns and the coexact columns of character m (``eig``'s
``characters``).  Each block's norm comes from its thin factors, never forming the
difference, by ``spectral.Lanczos``, the Krylov engine of the f(Delta) x calculus,
with its stepping, reorthogonalisation and stopping rule.

Every difference is carried as its symmetric integral kernel X, with the
operator D = X M.  A side's kernel is V g V^T (V the coexact eigenvectors),
so no mass solve is needed.  Every reader of X (the per-cell traces and the
Maxwell tensor) uses entries within one cell only, so X is carried as its
per-cell blocks: ``kernel_blocks`` gathers each cell's 6 edge rows G of V
and adds G Lambda^1/2 G^T for D1 and (D G) Lambda^-1/2 (D G)^T for D2, D the
local d1 of one cell.  No n1 x n1 product is formed; the only large
temporary is one side's C-ordered copy of V at a time.  The kernel lives in
the shared Whitney basis: the reference side's rows are those of the
injected carved edges, which keeps M-self-adjointness.  The global tr(X M)
of the trace identity is summed from the eigenpairs, not from the blocks, so
the identity compares two independent paths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .forms import DecOperators, MaterialField, build_d, group_character_bases
from .mesh import ObstacleScenario, SimplicialComplex
from .spectral import (
    COLUMN_BLOCK,
    LANCZOS_CHECK,
    Lanczos,
    LaplaceOperator,
    SpectralDecomposition,
    _start_vector,
    eig,
    inverse_sqrt_quadrature,
    kernel_block,
)

# Rows per chunk of the nearest-boundary distances, so the chunk x n_b x 3 temporary
# stays near a megabyte where the whole broadcast is tens of megabytes at res 2.
_DIST_CHUNK = 64
# Carved cells per chunk of the kernel blocks: a chunk gathers chunk x 6 rows of a
# side's coexact eigenvectors, a few megabytes at res 2.
_CELL_CHUNK = 64


@dataclass
class SideData:
    """Operators and the coexact-block eigensystem for one side."""

    ops: DecOperators
    op: LaplaceOperator  # pencil (d1^T M2 d1, M1) on kept edges
    # eig(op): the kernel is the closed 1-forms, the exact ones d0 L^-T from the gauge
    # and the harmonic ones from the blocks' cotree eighs; the rest is the coexact block
    dec: SpectralDecomposition

    def positive_bounds(self) -> tuple[float, float]:
        kd = self.dec.kernel_dim
        return float(self.dec.evals[kd]), float(self.dec.evals[-1])

    @cached_property
    def _kernel_rotation(self) -> tuple[np.ndarray, np.ndarray]:
        """``spectral.kernel_block`` on the pencil's kernel, made once per side."""
        return kernel_block(self.op, self.dec.vectors[:, : self.dec.kernel_dim])

    def hodge_system(self, left: sp.spmatrix | None = None,
                     columns: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Complete M1-orthonormal eigensystem [Z U, V_c], [nu, lambda_c] of Delta_1.

        (nu, U) is ``spectral.kernel_block`` on the pencil's kernel Z (the closed
        forms); the blocks stay in this order.  ``columns`` (ascending indices of the
        decomposition past its kernel) keeps only those columns of V_c.  With ``left``
        (a matrix of n1 columns) the vectors come premultiplied, left [Z U, V_c], and
        the full system is never formed.  U rotates the kernel columns of that product
        in place; only ``left=None`` copies the side's vectors.
        """
        dec = self.dec
        kd = dec.kernel_dim
        nu, U = self._kernel_rotation
        cols = np.arange(len(dec.evals)) if columns is None else np.r_[np.arange(kd), columns]
        if left is None:
            L = np.asfortranarray(dec.vectors[:, cols])
        else:
            # in column blocks: a sparse product makes a C-ordered copy of its operand
            L = np.empty((left.shape[0], len(cols)))
            for j in range(0, len(cols), COLUMN_BLOCK):
                L[:, j : j + COLUMN_BLOCK] = left @ dec.vectors[:, cols[j : j + COLUMN_BLOCK]]
        L[:, :kd] = L[:, :kd] @ U
        return L, np.concatenate([nu, dec.evals[cols[kd:]]])


def build_side(cplx, material: MaterialField) -> SideData:
    ops = DecOperators(cplx, material)
    op = LaplaceOperator(1, ops, (ops.d(1).T @ ops.mass(2) @ ops.d(1)).tocsr(), ops.mass(1))
    return SideData(ops=ops, op=op, dec=eig(op))


@dataclass
class ScenarioStress:
    """Matched pair of sides with kept-DOF injection maps."""

    scenario: ObstacleScenario
    material: MaterialField
    sigma: SideData
    reference: SideData
    kept_maps: dict[int, np.ndarray] = field(default_factory=dict)

    @classmethod
    def build(cls, scenario: ObstacleScenario, material: MaterialField | None = None) -> "ScenarioStress":
        material = material or MaterialField.vacuum()
        sigma = build_side(scenario.carved, material)
        if scenario.carved is scenario.reference:
            reference = sigma
        else:
            reference = build_side(scenario.reference, material)
        obj = cls(scenario, material, sigma, reference)
        for p in (1, 2):
            obj.kept_maps[p] = obj._kept_map(p)
        return obj

    def _kept_map(self, p: int) -> np.ndarray:
        inj = self.scenario.injections[p]
        out = self.reference.ops.kept_pos(p)[inj[self.sigma.ops.kept[p]]]
        if np.any(out < 0):
            raise ValueError("injection image is not an interior reference DOF")
        return out

    def scatter(self, p: int, x: np.ndarray) -> np.ndarray:
        """Zero-extension of a carved kept cochain into reference kept DOFs."""
        x = np.asarray(x)
        out = np.zeros((self.reference.ops.n(p),) + x.shape[1:], dtype=x.dtype)
        out[self.kept_maps[p]] = x
        return out


def _side_factor(side: SideData, power: float, through_d: bool,
                 rows: np.ndarray | None = None) -> np.ndarray:
    """W = V lambda^(power/2) on the coexact block, so that V g V^T = W W^T.

    ``through_d`` replaces V by d1 V; ``rows`` keeps only those rows of W.
    D1 = Delta^-1/2 delta~ d is power 1/2 on 1-forms and D2 = d Delta^-1/2 delta~
    is power -1/2 through d.
    """
    dec = side.dec
    kd = dec.kernel_dim
    V = dec.vectors[:, kd:]
    if through_d:
        d1 = side.ops.d(1)
        V = (d1 if rows is None else d1[rows]) @ V
    elif rows is not None:
        V = V[rows]
    return V * (dec.evals[kd:] ** (0.5 * power))[None, :]


def kernel_blocks(st: ScenarioStress) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell blocks of the kernels X1 (n_cells, 6, 6) and X2 (n_cells, 4, 4) of D1 and
    D2 (D = X M), on each carved cell's edges and faces in ``face_ids`` order.

    Each side adds G Lambda^1/2 G^T to X1 and (D G) Lambda^-1/2 (D G)^T to X2, with G
    the cell's 6 edge rows of its coexact eigenvectors and D the local d1, the same for
    every cell because simplices are sorted rows.  The reference side's rows are those
    of the injected edges.  Entries at masked edges and faces are zero.
    """
    cplx = st.sigma.ops.complex
    edges = cplx.face_ids(1)
    X1, X2 = np.zeros((len(edges), 6, 6)), np.zeros((len(edges), 4, 4))
    if st.reference is st.sigma:
        return X1, X2
    D = build_d(SimplicialComplex.from_top_cells(np.eye(4, 3, -1), [[0, 1, 2, 3]]), 1).toarray()
    for sgn, side, ids in ((1.0, st.sigma, edges),
                           (-1.0, st.reference, st.scenario.injections[1][edges])):
        kd = side.dec.kernel_dim
        V = np.zeros((side.ops.n(1) + 1, side.ops.n(1) - kd))  # masked edges read row -1
        V[:-1] = side.dec.vectors[:, kd:]
        pos = side.ops.kept_pos(1)[ids]
        lam = side.dec.evals[kd:]
        for i in range(0, len(edges), _CELL_CHUNK):
            G = V[pos[i : i + _CELL_CHUNK]]
            F = D @ G
            X1[i : i + _CELL_CHUNK] += sgn * ((G * lam**0.5) @ G.transpose(0, 2, 1))
            X2[i : i + _CELL_CHUNK] += sgn * ((F * lam**-0.5) @ F.transpose(0, 2, 1))
        del V  # before the next side allocates its copy
    for X, keep in ((X1, st.sigma.ops.kept_pos(1)[edges] >= 0),
                    (X2, st.sigma.ops.kept_pos(2)[cplx.face_ids(2)] >= 0)):
        X *= keep[:, :, None] & keep[:, None, :]
    return X1, X2


def kernel_trace(st: ScenarioStress, p: int) -> float:
    """tr(X_p M_p) from the side eigenpairs: sum_k lambda_k^(+-1/2) v_k^T (R^T M_p R) v_k.

    R keeps the side's rows for the carved kept edges (p = 1), or is those rows of d1
    (p = 2); on the reference side they are ``kept_maps[p]``.  The sum runs in
    COLUMN_BLOCK column blocks and never reads :func:`kernel_blocks`.
    """
    if st.reference is st.sigma:
        return 0.0
    M, out = st.sigma.ops.mass(p), 0.0
    for sgn, side, rows in ((1.0, st.sigma, slice(None)), (-1.0, st.reference, st.kept_maps[p])):
        dec, d1 = side.dec, side.ops.d(1)[rows]
        for j in range(dec.kernel_dim, len(dec.evals), COLUMN_BLOCK):
            Y = dec.vectors[:, j : j + COLUMN_BLOCK]
            Y = d1 @ Y if p == 2 else Y[rows]
            g = dec.evals[j : j + COLUMN_BLOCK] ** (0.5 if p == 1 else -0.5)
            out += sgn * float(g @ np.einsum("ij,ij->j", Y, M @ Y))
    return out


def _side_quadrature(side: SideData, which: str, X: np.ndarray) -> np.ndarray:
    """The side operator of D1 or D2 applied to X through the resolvent quadrature.

    D1 X = Delta^-1/2 (delta~ d X) and D2 X = d Delta^-1/2 (delta~ X), with
    Delta^-1/2 evaluated on the pencil from sparse resolvent solves only.
    """
    ops = side.ops
    bounds = side.positive_bounds()
    if which == "D1":
        return inverse_sqrt_quadrature(
            side.op, ops.apply_codifferential(2, ops.d(1) @ X), spectrum_bounds=bounds
        )
    return ops.d(1) @ inverse_sqrt_quadrature(
        side.op, ops.apply_codifferential(2, X), spectrum_bounds=bounds
    )


def quadrature_agreement(st: ScenarioStress, which: str = "D1") -> float:
    """Relative action discrepancy between the quadrature path and the eig path.

    The two are compared on 8 random probes Y (seed 0).  The eig side applies
    the difference from its factors, W (W^T M Y) - W0 (W0^T M Y).
    """
    p = 1 if which == "D1" else 2
    power, through_d = (0.5, False) if which == "D1" else (-0.5, True)
    Y = np.random.default_rng(0).standard_normal((st.sigma.ops.n(p), 8))
    MY = st.sigma.ops.mass(p) @ Y
    a = _side_quadrature(st.sigma, which, Y)
    W = _side_factor(st.sigma, power, through_d)
    ref = W @ (W.T @ MY)
    if st.reference is not st.sigma:
        # kernel-style restriction acting on vectors: J^T A0 M0^{-1} J M y
        j = st.kept_maps[p]
        Z = np.zeros((st.reference.ops.n(p), Y.shape[1]))
        Z[j] = MY
        z = _side_quadrature(st.reference, which, st.reference.ops.mass_factor(p).solve(Z))
        a = a - z[j]
        W0 = _side_factor(st.reference, power, through_d, rows=j)
        ref = ref - W0 @ (W0.T @ MY)
    return float(np.linalg.norm(a - ref) / max(np.linalg.norm(ref), 1e-300))


# -- local traces --------------------------------------------------------------------


def cell_traces(st: ScenarioStress, X: np.ndarray, p: int) -> np.ndarray:
    """Attribute tr(X M) to the carved cells: tr(X_c M_c) per cell, from the kernel's
    per-cell blocks X (:func:`kernel_blocks`) and the local mass blocks."""
    _, blocks = st.sigma.ops.local_mass(p)
    return np.einsum("cij,cji->c", X, blocks)


@dataclass
class StressReport:
    """Per-cell renormalised energy density and its diagnostics."""

    t00: np.ndarray
    cell_volumes: np.ndarray
    trace_d1: float
    trace_d2: float
    t1_cells: np.ndarray
    t2_cells: np.ndarray
    # per-cell blocks of the difference kernels (D = X M) on each cell's 6 edges and
    # 4 faces, from kernel_blocks; zero at masked DOFs
    X1: np.ndarray = field(repr=False)
    X2: np.ndarray = field(repr=False)
    divergence: dict | None = None

    @property
    def total_energy(self) -> float:
        return float(np.sum(self.t00 * self.cell_volumes))

    def trace_identity_error(self) -> float:
        target = -0.25 * (self.trace_d1 + self.trace_d2)
        scale = max(abs(target), abs(self.total_energy), 1e-300)
        return abs(self.total_energy - target) / scale

    def to_json(self) -> str:
        obj = {
            "total_energy": self.total_energy,
            "trace_d1": self.trace_d1,
            "trace_d2": self.trace_d2,
            "trace_identity_error": self.trace_identity_error(),
            "n_cells": int(len(self.t00)),
        }
        if self.divergence is not None:
            obj["divergence"] = {
                k: v for k, v in self.divergence.items() if np.isscalar(v)
            }
        return json.dumps(obj, sort_keys=True, indent=1)


def local_energy_density(st: ScenarioStress) -> StressReport:
    X1, X2 = kernel_blocks(st)
    ops = st.sigma.ops
    t1 = cell_traces(st, X1, 1)
    t2 = cell_traces(st, X2, 2)
    vols = ops.complex.cell_volumes()
    return StressReport(
        t00=-0.25 * (t1 + t2) / vols,
        cell_volumes=vols,
        trace_d1=kernel_trace(st, 1),
        trace_d2=kernel_trace(st, 2),
        t1_cells=t1,
        t2_cells=t2,
        X1=X1,
        X2=X2,
    )


def t0k_check(st: ScenarioStress, unsymmetrize: float = 0.0) -> float:
    """Residual of the mixed E-B polarization cancellation behind T_0k = 0.

    The four quarter-terms of the time-derivative pairing cancel pairwise by
    M-self-adjointness of the half-power kernels; the residual measures that
    cancellation on 12 random samples (seed 0, drawn E_0, B_0, E_1, ...) for
    the difference of the two states (the reference side sees the data through
    zero-extension).  The samples run as one block of 12 columns, and each side
    applies V Lambda^-1/2 V^T M to them COLUMN_BLOCK eigenvectors at a time; worst and
    scale are taken per sample.  ``unsymmetrize`` is a control: the carved
    side's operator becomes G (I + u triu(1)).
    """
    rng = np.random.default_rng(0)
    ops_s = st.sigma.ops
    draws = [(rng.standard_normal(ops_s.n(1)), rng.standard_normal(ops_s.n(2))) for _ in range(12)]
    E = np.column_stack([e for e, _b in draws])
    B = np.column_stack([b for _e, b in draws])

    def half_power(side, skew):
        dec, M = side.dec, side.ops.mass(1)

        def apply(x):
            # (triu(1) x)_i = sum_{j>i} x_j, column by column
            x = x + skew * (np.sum(x, axis=0) - np.cumsum(x, axis=0))
            Mx, out = M @ x, np.zeros_like(x)
            for j in range(dec.kernel_dim, len(dec.evals), COLUMN_BLOCK):  # V Lambda^-1/2 V^T
                V = dec.vectors[:, j : j + COLUMN_BLOCK]
                out += V @ ((V.T @ Mx) * dec.evals[j : j + COLUMN_BLOCK, None] ** -0.5)
            return out

        return apply

    def side_pair(ops, G1, E, B):
        cB = ops.apply_codifferential(2, B)
        d1, M2 = ops.d(1), ops.mass(2)
        dE = d1 @ E
        t_a = np.einsum("ij,ij->j", d1 @ G1(cB), M2 @ dE)  # <W2 d delta~ B, d E>
        t_b = np.einsum("ij,ij->j", d1 @ G1(E), M2 @ (d1 @ cB))  # <W2 d E, d delta~ B>
        return t_a, t_b

    ta, tb = side_pair(ops_s, half_power(st.sigma, unsymmetrize), E, B)
    if st.reference is not st.sigma:
        ta0, tb0 = side_pair(
            st.reference.ops, half_power(st.reference, 0.0), st.scatter(1, E), st.scatter(2, B)
        )
        ta, tb = ta - ta0, tb - tb0
    worst = float(np.max(np.abs(0.25 * (ta - tb))))
    scale = max(1e-300, float(np.max(np.abs(0.25 * ta))), float(np.max(np.abs(0.25 * tb))))
    return worst / scale


def maxwell_tensor(st: ScenarioStress, report: StressReport) -> np.ndarray:
    """Spatial stress components per cell: H_jk = (K1_jk + K2_jk)/2 + delta_jk T00."""
    ops = st.sigma.ops
    H = np.zeros((len(report.t00), 3, 3))
    for p, X in ((1, report.X1), (2, report.X2)):
        _, blocks = ops.component_blocks(p)
        H += 0.5 * np.einsum("cil,ciljk->cjk", X, blocks)
    H /= report.cell_volumes[:, None, None]
    H += np.eye(3)[None, :, :] * report.t00[:, None, None]
    return H


def _nearest_distance(points: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point to its nearest target, _DIST_CHUNK points at a
    time; every entry is computed as by one broadcast over all points."""
    out = np.empty(len(points))
    for i in range(0, len(points), _DIST_CHUNK):
        diff = points[i : i + _DIST_CHUNK, None, :] - targets[None, :, :]
        out[i : i + _DIST_CHUNK] = np.min(np.linalg.norm(diff, axis=2), axis=1)
    return out


# -- divergence of the stress field ----------------------------------------------------


def divergence_residual(st: ScenarioStress, H: np.ndarray | None = None,
                        report: StressReport | None = None,
                        obstacle_margin: float = 0.0) -> dict:
    """Weak per-vertex divergence of the cellwise-constant stress tensor.

    Interior hat functions vanish identically on every boundary face, so the
    weak divergence carries no surface term; vertices are used when their
    whole cell patch is vacuum and no patch cell has a face on the obstacle
    boundary, where the difference kernel is not smooth.  ``obstacle_margin``
    additionally excludes vertices within a fixed physical distance of the
    obstacle boundary, which is what refinement studies must hold constant.
    """
    if report is None:
        report = local_energy_density(st)
    if H is None:
        H = maxwell_tensor(st, report)
    ops = st.sigma.ops
    cplx = ops.complex
    from .mesh import OBSTACLE

    vols, grads, _ = ops.cell_geometry
    vpos = cplx.face_ids(0)  # 0-simplex index of each cell's vertices
    n0 = cplx.n(0)
    r = np.zeros((n0, 3))
    volv = np.zeros(n0)
    bad = np.zeros(n0, dtype=bool)
    obstacle_facets = cplx.boundary_markers.get(OBSTACLE, np.zeros(0, dtype=np.int64))
    tags, tag_of = np.unique(cplx.regions, return_inverse=True)
    vacuum = np.array(
        [st.material.eps_of(t) == 1.0 and st.material.mu_of(t) == 1.0 for t in tags]
    )[tag_of]
    touches = ~vacuum | np.isin(cplx.face_ids(2), obstacle_facets).any(axis=1)
    # cell c adds vols[c] H[c]^T grad(lambda_v) to each of its vertices v
    contrib = vols[:, None, None] * np.einsum("ckj,cvk->cvj", H, grads)
    np.add.at(r, vpos.ravel(), contrib.reshape(-1, 3))
    np.add.at(volv, vpos.ravel(), np.repeat(vols / 4.0, vpos.shape[1]))
    bad[vpos[touches]] = True
    if obstacle_margin > 0 and len(obstacle_facets):
        ocoords = cplx.vertices[np.unique(cplx.simplices[2][obstacle_facets])]
        nodes = cplx.simplices[0][:, 0]
        bad |= _nearest_distance(cplx.vertices[nodes], ocoords) <= obstacle_margin
    usable = np.nonzero((ops.kept_pos(0) >= 0) & ~bad & (volv > 0))[0]
    est = -r[usable] / volv[usable, None]
    mags = np.linalg.norm(est, axis=1)
    out = {
        "n_vertices": int(len(usable)),
        "max": float(mags.max()) if len(mags) else 0.0,
        "l2": float(np.sqrt(np.sum(volv[usable] * mags**2) / max(volv[usable].sum(), 1e-300)))
        if len(mags)
        else 0.0,
        "vertices": usable,
        "values": est,
    }
    report.divergence = out
    return out


# -- resolvent difference decay ---------------------------------------------------------


def interior_window(st: ScenarioStress) -> np.ndarray:
    """Kept edge positions farther than 1.0 from the obstacle and outer boundaries."""
    ops = st.sigma.ops
    cplx = ops.complex
    simp = cplx.simplices[1][ops.kept[1]]
    mids = cplx.vertices[simp].mean(axis=1)
    bnodes = np.unique(cplx.simplices[cplx.dim - 1][cplx.boundary_facets()])
    return np.nonzero(_nearest_distance(mids, cplx.vertices[bnodes]) > 1.0)[0]


def window_blocks(st: ScenarioStress, window: np.ndarray) -> list[tuple[sp.csc_matrix, list]]:
    """The decay's symmetry blocks: per character of the group that both sides share,
    the window's orthonormal character basis Bw (w x w_m, rows in window order) and,
    per side, the ascending indices of its coexact columns of that character.

    The shared group holds the elements with the same axis matrix A on both sides
    (``DecOperators.symmetry_axes``); the injection must intertwine their actions on
    the kept edges, signs included, so Bw serves the window rows of both sides.  The
    window must be a union of its orbits.  Each side's character m
    (``SpectralDecomposition.characters``) restricts to one character of the shared
    group, and a column whose decomposition has no characters goes into every block.
    Without a shared symmetry there is one block, Bw = 1.
    """
    sides, inj = (st.sigma, st.reference), st.kept_maps[1]
    groups = [side.ops._group(1) for side in sides]
    axes = [side.ops.symmetry_axes() for side in sides]
    pairs = [(es, er) for es, A in enumerate(axes[0]) for er, A0 in enumerate(axes[1])
             if np.array_equal(A, A0)]  # identity first
    at = np.full(st.sigma.ops.n(1), -1)
    at[window] = np.arange(len(window))
    elems = []
    for es, er in pairs:
        (img, sgn), (img0, sgn0) = groups[0][es], groups[1][er]
        if not (np.array_equal(img0[inj], inj[img]) and np.array_equal(sgn0[inj], sgn)):
            raise ValueError(f"the injection does not intertwine the symmetry "
                             f"{axes[0][es].astype(int).tolist()} of the two sides")
        out = np.flatnonzero(at[img[window]] < 0)
        if len(out):
            i = int(window[out[0]])
            orbit = sorted({int(groups[0][e][0][i]) for e, _ in pairs})
            raise ValueError(f"the interior window is not a union of symmetry orbits: the "
                             f"orbit {orbit} of kept edge {i} leaves it")
        elems.append((at[img[window]], sgn[window]))

    def restrict(m, k):  # side k's character m on the shared group
        return tuple((-1) ** bin(m & pair[k]).count("1") for pair in pairs)

    chis = sorted({restrict(m, 0) for m in range(len(groups[0]))}, reverse=True)
    cols = []
    for k, side in enumerate(sides):
        dec, kd = side.dec, side.dec.kernel_dim
        if dec.characters is None:
            block = np.full(len(dec.evals) - kd, -1)
        else:
            of_m = np.array([chis.index(restrict(m, k)) for m in range(len(groups[k]))])
            block = of_m[dec.characters[kd:]]
        cols.append([kd + np.flatnonzero((block == b) | (block < 0)) for b in range(len(chis))])
    return [(Bw, [c[b] for c in cols])
            for b, Bw in enumerate(group_character_bases(elems, chis))]


def resolvent_difference_decay(
    st: ScenarioStress, lam_grid: np.ndarray, window: np.ndarray | None = None
) -> list[tuple[float, float]]:
    """Table of ||(R_sigma(lam) - R_ref(lam))|_window|| over the grid, on 1-forms.

    R is the full Hodge-Laplacian resolvent as an operator on cochains,
    (S + lam^2 M)^-1 M = V (Lambda + lam^2)^-1 (M V)^T from each side's complete
    eigensystem, and D(lam) is the w x w difference of the two on the window.  Both
    resolvents commute with the symmetry group the two sides share, and the window is
    a union of its orbits, so in the window's character bases Bw_m
    (:func:`window_blocks`) D is block diagonal and ||D|| = max_m ||Bw_m^T D Bw_m||.
    A coexact eigenvector of another character has no part in block m, so block m
    takes, per side, the kernel columns Z U (which mix the characters) and the coexact
    columns of character m, through Bw_m^T on the window rows: thin factors
    a = Bw_m^T V_w and b = Bw_m^T (M V)_w (``hodge_system(left, columns)``), and
    Bw_m^T D Bw_m = a_s C_s(lam) b_s^T - a_r C_r(lam) b_r^T, C = (Lambda + lam^2)^-1.
    No block is formed: its spectral norm is sqrt(lambda_max) of its D D^T from one
    ``spectral.Lanczos`` engine per block (M = 1, no kernel), with one fixed-seed start
    vector for every grid point.  A block's grid points step together, each step
    applying D^T and then D to the block of their current basis vectors through the
    factors (one product with each factor per side), and each stops when its top Ritz
    value settles (``spectral.LANCZOS_TOL``).  A mesh without a shared symmetry is one
    block on every column.
    """
    if window is None:
        window = interior_window(st)
    w, grid = len(window), np.asarray(lam_grid, dtype=float)
    if not w:
        return [(float(lam), 0.0) for lam in grid]
    top = np.zeros(len(grid))
    rows = []  # per side: the window rows of 1 and of M
    for side, r in ((st.sigma, window), (st.reference, st.kept_maps[1][window])):
        rows.append(sp.vstack([sp.eye(side.ops.n(1), format="csr")[r], side.ops.mass(1)[r]]))
    for Bw, cols in window_blocks(st, window):
        wm = Bw.shape[1]
        if not wm:
            continue
        factors = []  # per side: a, b and C, one column of C per grid point
        for side, R, c in zip((st.sigma, st.reference), rows, cols):
            L, evals = side.hodge_system((sp.block_diag([Bw.T, Bw.T]) @ R).tocsr(), c)
            factors.append((L[:wm], L[wm:], 1.0 / (evals[:, None] + grid[None, :] ** 2)))
        top = np.maximum(top, _top_eigenvalues(factors, grid))
    return [(float(lam), float(np.sqrt(max(t, 0.0)))) for lam, t in zip(grid, top)]


def _top_eigenvalues(factors: list, grid: np.ndarray) -> np.ndarray:
    """lambda_max(D D^T) per grid point, D = a_s C_s b_s^T - a_r C_r b_r^T from the two
    sides' ``factors`` (a, b, C), by one Lanczos engine stepping the grid in lockstep."""
    wm = factors[0][0].shape[0]

    def gram(Q, krys):  # (A Q, M^-1 A Q), A = D D^T at each basis's grid point, M = 1
        cols = [point[id(kry)] for kry in krys]
        for trans in (True, False):  # D^T = b C a^T, then D = a C b^T
            acc = 0.0
            for sgn, (a, b, C) in zip((1.0, -1.0), factors):
                left, right = (b, a) if trans else (a, b)
                acc = acc + sgn * (left @ ((right.T @ Q) * C[:, cols]))
            Q = acc
        return Q, Q

    def top_ritz(_j, kry, m):  # lambda_max(T_m), as a 1 x 1 measure
        T = kry.alpha[:m], kry.beta[1:m]
        return sla.eigvalsh_tridiagonal(*T, select="i", select_range=(m - 1, m - 1))[None]

    engine = Lanczos(gram, sp.identity(wm, format="csr"), np.zeros((wm, 0)))
    # bases grown from 2 checks' rows: allocated at the cap, 1.2 MB more resident (balls:1)
    krys = [engine.start(_start_vector(wm), 2 * LANCZOS_CHECK) for _ in grid]
    point = {id(kry): j for j, kry in enumerate(krys)}
    done = engine.converge(
        krys, top_ritz, "top Ritz value", lambda j: f"decay Lanczos at lam = {grid[j]:.6g}"
    )
    return np.array([t[0, 0] for _m, t in done])


def loglog_slope(table: list[tuple[float, float]]) -> float:
    """Least-squares slope of log value against log lam over the upper half of the table."""
    lam = np.array([t[0] for t in table])
    val = np.array([max(t[1], 1e-300) for t in table])
    n = len(lam)
    k = max(2, int(np.ceil(n * 0.5)))
    x, y = np.log(lam[-k:]), np.log(val[-k:])
    return float(np.polyfit(x, y, 1)[0])
