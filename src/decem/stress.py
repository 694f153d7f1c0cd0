"""Renormalised stress-energy between the obstacle state and the reference.

The operator differences D1 = (Delta^-1/2 - Delta0^-1/2) delta~ d on 1-forms
and D2 = d (Delta^-1/2 - Delta0^-1/2) delta~ on 2-forms only probe the
coexact block of the Laplacian, where Delta coincides with delta~ d.  Both
sides are therefore built from the generalized pencil (d^T M2 d, M1): zero
modes and exact forms sit in its kernel and drop out exactly, which realizes
the kernel-exclusion policy of the continuum formula.  Each side's pencil is
eigensolved by ``spectral.eig`` (with its residual checks), and the second
path to D1 and D2 is ``spectral.inverse_sqrt_quadrature`` on the same pencil.

The reference side is restricted to the shared interior DOFs as an integral
kernel: coefficients A0 M0^-1 live in the shared Whitney basis, are
index-restricted, and re-weighted with the carved mass.  That convention
keeps M-self-adjointness and makes the per-cell trace attribution reproduce
the global matrix trace exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .forms import DecOperators, MaterialField, reduce_relative
from .mesh import ObstacleScenario
from .spectral import (
    LaplaceOperator,
    SpectralDecomposition,
    assemble_laplacian,
    eig,
    inverse_sqrt_quadrature,
)


@dataclass
class SideData:
    """Operators and the coexact-block eigensystem for one side."""

    ops: DecOperators
    op: LaplaceOperator  # pencil (d1^T M2 d1, M1) on kept edges
    dec: SpectralDecomposition  # eig(op); kernel = closed 1-forms
    _S1_dense: np.ndarray | None = field(default=None, repr=False)

    def S1_dense(self) -> np.ndarray:
        """Full Hodge-Laplacian stiffness on 1-forms (for resolvent studies)."""
        if self._S1_dense is None:
            self._S1_dense = assemble_laplacian(self.ops, 1).S_dense()
        return self._S1_dense

    def positive_bounds(self) -> tuple[float, float]:
        kd = self.dec.kernel_dim
        return float(self.dec.evals[kd]), float(self.dec.evals[-1])


def build_side(cplx, material: MaterialField) -> SideData:
    ops = reduce_relative(DecOperators(cplx, material))
    K = (ops.d(1).T @ ops.mass(2) @ ops.d(1)).tocsr()
    op = LaplaceOperator(1, ops, K, ops.mass(1), exact_nonzero=True)
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
        out = np.zeros(self.reference.ops.n(p), dtype=np.asarray(x).dtype)
        out[self.kept_maps[p]] = x
        return out


def _side_kernel(side: SideData, power: float, through_d: bool) -> np.ndarray:
    """Dense side operator V g V^T M, g = lambda^power on the coexact block.

    V holds the pencil's eigenvectors; ``through_d`` replaces V by d1 V and M1
    by M2.  D1 = Delta^-1/2 delta~ d is power 1/2 on 1-forms, D2 = d Delta^-1/2
    delta~ is power -1/2 through d, and t0k_check uses Delta^-1/2 on 1-forms.
    """
    dec = side.dec
    V = side.ops.d(1) @ dec.vectors if through_d else dec.vectors
    g = np.zeros_like(dec.evals)
    kd = dec.kernel_dim
    g[kd:] = dec.evals[kd:] ** power
    M = side.ops.mass(2 if through_d else 1)
    return (V * g[None, :]) @ (V.T @ M.toarray())


def restrict_reference(st: ScenarioStress, A0: np.ndarray, p: int) -> np.ndarray:
    """Pull a reference-side operator back to the carved kept DOFs (kernel style)."""
    j = st.kept_maps[p]
    kern = st.reference.ops.mass_factor(p).solve(A0.T).T  # A0 M0^{-1}
    return kern[np.ix_(j, j)] @ st.sigma.ops.mass(p).toarray()


def operator_difference(st: ScenarioStress, which: str, via: str = "eig") -> np.ndarray:
    """D1 or D2 on the shared kept DOFs of the carved side."""
    if which not in ("D1", "D2"):
        raise ValueError("which must be 'D1' or 'D2'")
    p = 1 if which == "D1" else 2
    if via == "eig":
        power, through_d = (0.5, False) if which == "D1" else (-0.5, True)
        a = _side_kernel(st.sigma, power, through_d)
        if st.reference is st.sigma:
            return np.zeros_like(a)
        return a - restrict_reference(st, _side_kernel(st.reference, power, through_d), p)
    if via == "quadrature":
        n = st.sigma.ops.n(p)
        a = _side_quadrature(st.sigma, which, np.eye(n))
        if st.reference is st.sigma:
            return np.zeros_like(a)
        b = _side_quadrature(st.reference, which, np.eye(st.reference.ops.n(p)))
        return a - restrict_reference(st, b, p)
    raise ValueError("via must be 'eig' or 'quadrature'")


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


def quadrature_agreement(st: ScenarioStress, which: str = "D1", n_probes: int = 16,
                         seed: int = 0, D: np.ndarray | None = None) -> float:
    """Relative action discrepancy between quadrature- and eig-built differences."""
    p = 1 if which == "D1" else 2
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((st.sigma.ops.n(p), n_probes))
    a = _side_quadrature(st.sigma, which, X)
    if st.reference is not st.sigma:
        # kernel-style restriction acting on vectors: J^T A0 M0^{-1} J M x
        Y = np.zeros((st.reference.ops.n(p), n_probes))
        Y[st.kept_maps[p]] = st.sigma.ops.mass(p) @ X
        z = _side_quadrature(st.reference, which, st.reference.ops.mass_factor(p).solve(Y))
        a = a - z[st.kept_maps[p]]
    if D is None:
        D = operator_difference(st, which)
    ref = D @ X
    return float(np.linalg.norm(a - ref) / max(np.linalg.norm(ref), 1e-300))


# -- local traces --------------------------------------------------------------------


def _cell_gather(ops: DecOperators, p: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per cell: local slots of its kept p-faces and their kept-DOF positions."""
    pos = ops.kept_pos(p)[ops.complex.face_ids(p)]
    out = []
    for row in pos:
        lidx = np.nonzero(row >= 0)[0]
        out.append((lidx, row[lidx]))
    return out


def _cell_trace_weights(ops: DecOperators, p: int):
    _, blocks = ops.local_mass(p)
    return [
        (gidx, blocks[c][np.ix_(lidx, lidx)])
        for c, (lidx, gidx) in enumerate(_cell_gather(ops, p))
    ]


def cell_traces(st: ScenarioStress, D: np.ndarray, p: int) -> np.ndarray:
    """Attribute the matrix trace of D (on kept p-DOFs) to cells of the carved mesh."""
    ops = st.sigma.ops
    X = ops.mass_factor(p).solve(D.T).T  # D M^{-1}: kernel coefficients
    weights = _cell_trace_weights(ops, p)
    out = np.zeros(len(weights))
    for c, (gidx, m_c) in enumerate(weights):
        if len(gidx) == 0:
            continue
        out[c] = float(np.tensordot(X[np.ix_(gidx, gidx)], m_c.T, axes=2))
    return out


@dataclass
class StressReport:
    """Per-cell renormalised energy density and its diagnostics."""

    t00: np.ndarray
    cell_volumes: np.ndarray
    trace_d1: float
    trace_d2: float
    t1_cells: np.ndarray
    t2_cells: np.ndarray
    maxwell_tensor: np.ndarray | None = None
    t0k_residual: float | None = None
    divergence: dict | None = None
    decay_table: list | None = None

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
            "t0k_residual": self.t0k_residual,
            "n_cells": int(len(self.t00)),
        }
        if self.divergence is not None:
            obj["divergence"] = {
                k: v for k, v in self.divergence.items() if np.isscalar(v)
            }
        return json.dumps(obj, sort_keys=True, indent=1)


def local_energy_density(st: ScenarioStress, D1: np.ndarray | None = None,
                         D2: np.ndarray | None = None) -> StressReport:
    if D1 is None:
        D1 = operator_difference(st, "D1")
    if D2 is None:
        D2 = operator_difference(st, "D2")
    t1 = cell_traces(st, D1, 1)
    t2 = cell_traces(st, D2, 2)
    vols = st.sigma.ops.complex.cell_volumes()
    return StressReport(
        t00=-0.25 * (t1 + t2) / vols,
        cell_volumes=vols,
        trace_d1=float(np.trace(D1)),
        trace_d2=float(np.trace(D2)),
        t1_cells=t1,
        t2_cells=t2,
    )


def t0k_check(st: ScenarioStress, n_samples: int = 12, seed: int = 0,
              unsymmetrize: float = 0.0) -> float:
    """Residual of the mixed E-B polarization cancellation behind T_0k = 0.

    The four quarter-terms of the time-derivative pairing cancel pairwise by
    M-self-adjointness of the half-power kernels; the residual measures that
    cancellation on random data for the difference of the two states (the
    reference side sees the data through zero-extension).
    """
    rng = np.random.default_rng(seed)
    ops_s = st.sigma.ops
    G1s = _side_kernel(st.sigma, -0.5, False)
    if unsymmetrize:
        n = G1s.shape[0]
        G1s = G1s @ (np.eye(n) + unsymmetrize * np.triu(np.ones((n, n)), 1))
    G1r = _side_kernel(st.reference, -0.5, False) if st.reference is not st.sigma else None
    worst, scale = 0.0, 1e-300

    def side_pair(ops, G1, E, B):
        zE = G1 @ E
        yB = G1 @ ops.apply_codifferential(2, B)
        dE = ops.d(1) @ E
        dzE = ops.d(1) @ zE
        dyB = ops.d(1) @ yB
        dB = ops.d(1) @ ops.apply_codifferential(2, B)
        t_a = float(dyB @ (ops.mass(2) @ dE))   # <W2 d delta~ B, d E>
        t_b = float(dzE @ (ops.mass(2) @ dB))   # <W2 d E, d delta~ B>
        return t_a, t_b

    for _ in range(n_samples):
        E = rng.standard_normal(ops_s.n(1))
        B = rng.standard_normal(ops_s.n(2))
        ta, tb = side_pair(ops_s, G1s, E, B)
        if G1r is not None:
            ta0, tb0 = side_pair(st.reference.ops, G1r, st.scatter(1, E), st.scatter(2, B))
            ta, tb = ta - ta0, tb - tb0
        worst = max(worst, abs(0.25 * (ta - tb)))
        scale = max(scale, abs(0.25 * ta), abs(0.25 * tb))
    return worst / scale


def maxwell_tensor(st: ScenarioStress, D1: np.ndarray | None = None,
                   D2: np.ndarray | None = None,
                   report: StressReport | None = None) -> np.ndarray:
    """Spatial stress components per cell: H_jk = (K1_jk + K2_jk)/2 + delta_jk T00."""
    if D1 is None:
        D1 = operator_difference(st, "D1")
    if D2 is None:
        D2 = operator_difference(st, "D2")
    if report is None:
        report = local_energy_density(st, D1, D2)
    ops = st.sigma.ops
    H = np.zeros((len(report.t00), 3, 3))
    for p, D in ((1, D1), (2, D2)):
        X = ops.mass_factor(p).solve(D.T).T
        _, blocks = ops.component_blocks(p)
        for c, (lidx, gidx) in enumerate(_cell_gather(ops, p)):
            if len(lidx) == 0:
                continue
            H[c] += 0.5 * np.einsum(
                "il,iljk->jk", X[np.ix_(gidx, gidx)], blocks[c][np.ix_(lidx, lidx)]
            )
    H /= report.cell_volumes[:, None, None]
    H += np.eye(3)[None, :, :] * report.t00[:, None, None]
    report.maxwell_tensor = H
    return H


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
        H = maxwell_tensor(st, report=report)
    ops = st.sigma.ops
    cplx = ops.complex
    from .forms import _cell_geometry
    from .mesh import OBSTACLE

    vols, grads, _ = _cell_geometry(cplx)
    vpos = cplx.face_ids(0)  # 0-simplex index of each cell's vertices
    n0 = cplx.n(0)
    r = np.zeros((n0, 3))
    volv = np.zeros(n0)
    bad = np.zeros(n0, dtype=bool)
    obstacle_facets = cplx.boundary_markers.get(OBSTACLE, np.zeros(0, dtype=np.int64))
    vacuum = np.array(
        [st.material.eps_of(t) == 1.0 and st.material.mu_of(t) == 1.0 for t in cplx.regions]
    )
    touches = ~vacuum | np.isin(cplx.face_ids(2), obstacle_facets).any(axis=1)
    for c in range(len(vpos)):
        for li, v in enumerate(vpos[c]):
            r[v] += vols[c] * (H[c].T @ grads[c, li])
            volv[v] += vols[c] / 4.0
    bad[vpos[touches]] = True
    if obstacle_margin > 0 and len(obstacle_facets):
        ocoords = cplx.vertices[np.unique(cplx.simplices[2][obstacle_facets])]
        nodes = cplx.simplices[0][:, 0]
        dist = np.min(
            np.linalg.norm(cplx.vertices[nodes][:, None, :] - ocoords[None, :, :], axis=2),
            axis=1,
        )
        bad |= dist <= obstacle_margin
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


def interior_window(st: ScenarioStress, p: int = 1, margin: float = 1.0) -> np.ndarray:
    """Kept p-DOF positions away from obstacle and outer boundaries."""
    ops = st.sigma.ops
    cplx = ops.complex
    simp = cplx.simplices[p][ops.kept[p]]
    mids = cplx.vertices[simp].mean(axis=1)
    bnodes = np.unique(cplx.simplices[cplx.dim - 1][cplx.boundary_facets()])
    bcoords = cplx.vertices[bnodes]
    dist = np.min(np.linalg.norm(mids[:, None, :] - bcoords[None, :, :], axis=2), axis=1)
    return np.nonzero(dist > margin)[0]


def resolvent_difference_decay(
    st: ScenarioStress, lam_grid: np.ndarray, window: np.ndarray | None = None, p: int = 1
) -> list[tuple[float, float]]:
    """Table of ||(R_sigma(lam) - R_ref(lam))|_window|| over the grid.

    R is the full Hodge-Laplacian resolvent as an operator on cochains,
    (S + lam^2 M)^-1 M; the restriction is index selection on the window.
    """
    if p != 1:
        raise ValueError("decay table is computed on 1-forms")
    if window is None:
        window = interior_window(st, p)
    S_s = st.sigma.S1_dense()
    S_r = st.reference.S1_dense()
    M_s = st.sigma.ops.mass(p).toarray()
    M_r = st.reference.ops.mass(p).toarray()
    win_ref = st.kept_maps[p][window]
    out = []
    for lam in lam_grid:
        Ds = sla.solve(S_s + lam * lam * M_s, M_s[:, window], assume_a="pos")[window, :]
        Dr = sla.solve(S_r + lam * lam * M_r, M_r[:, win_ref], assume_a="pos")[win_ref, :]
        out.append((float(lam), float(np.linalg.norm(Ds - Dr, 2))))
    return out


def loglog_slope(table: list[tuple[float, float]], upper_fraction: float = 0.5) -> float:
    lam = np.array([t[0] for t in table])
    val = np.array([max(t[1], 1e-300) for t in table])
    n = len(lam)
    k = max(2, int(np.ceil(n * upper_fraction)))
    x, y = np.log(lam[-k:]), np.log(val[-k:])
    return float(np.polyfit(x, y, 1)[0])
