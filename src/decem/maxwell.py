"""Classical Maxwell evolution in media by spectral calculus.

The fields solve second-order wave equations whose Duhamel terms are
evaluated per eigenmode with oscillatory-safe quadrature; constraints then
hold to quadrature precision because every algebraic identity used in the
continuum derivation (d^2 = 0, adjointness, commutation with the Laplacian)
is exact for the discrete operators.

Only the degree-1 eigensystem is needed, and its frequencies are
``dec.lam``.  The magnetic field is closed, so it is exact plus harmonic; d
intertwines the Laplacians, f(Delta_2) d_1 = d_1 f(Delta_1), so its exact part
is carried in the coefficient space of Delta_1 as d_1 V_1 c, applied as two
products (V_1 c, then d_1); no n_2 x n_1 matrix d_1 V_1 is stored.  Its
harmonic part is static, and it is checked to be co-closed before the
evolution starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .forms import DecOperators
from .spectral import SpectralDecomposition
from .timeprofiles import TimeProfile

CONSTRAINT_TOL = 1e-8  # relative bound on the initial constraints and co-closedness


@dataclass
class MaxwellState:
    t: float
    E: np.ndarray  # kept 1-cochain
    B: np.ndarray  # kept 2-cochain
    Edot: np.ndarray | None = None
    Bdot: np.ndarray | None = None


@dataclass
class CurrentSource:
    """Charge/current as finite sums of (time profile x static cochain).

    The cochains are the *scaled* densities rho/(eps^2 mu) on kept vertices
    and j/eps on kept edges, which is the combination the twisted wave
    equations consume.  For sources supported where the material is constant
    the scaling is exact; helpers on DecOperators perform it.
    """

    rho_terms: list[tuple[TimeProfile, np.ndarray]] = field(default_factory=list)
    j_terms: list[tuple[TimeProfile, np.ndarray]] = field(default_factory=list)

    def rho_at(self, t: float, n: int) -> np.ndarray:
        out = np.zeros(n)
        for g, c in self.rho_terms:
            out += g(t) * c
        return out

    def j_at(self, t: float, n: int) -> np.ndarray:
        out = np.zeros(n)
        for g, c in self.j_terms:
            out += g(t) * c
        return out

    def continuity_residual(self, ops: DecOperators, times) -> float:
        """sup_t || d/dt rho_hat - delta~ j_hat ||_M over the sample times."""
        worst = 0.0
        for t in times:
            r = np.zeros(ops.n(0))
            for g, c in self.rho_terms:
                r += g.derivative()(t) * c
            for g, c in self.j_terms:
                r -= g(t) * ops.apply_codifferential(1, c)
            worst = max(worst, ops.norm(0, r))
        return worst

    @classmethod
    def consistent(
        cls, ops: DecOperators, charge_profile: TimeProfile, a: np.ndarray
    ) -> "CurrentSource":
        """Divergence-consistent source from one spatial 1-cochain.

        With rho_hat = (delta~ a) G and j_hat = a G' the continuity identity
        d/dt rho_hat = delta~ j_hat holds exactly.
        """
        rho_hat = ops.apply_codifferential(1, a)
        return cls(
            rho_terms=[(charge_profile, rho_hat)],
            j_terms=[(charge_profile.derivative(), a)],
        )


def homogeneous(lam: np.ndarray, c0: np.ndarray, c1: np.ndarray, t: float):
    """Coefficient evolution (value, derivative) for x'' = -lam^2 x."""
    lt = lam * t
    cos = np.cos(lt)
    tsinc = t * np.sinc(lt / np.pi)
    return cos * c0 + tsinc * c1, -lam * np.sin(lt) * c0 + cos * c1


def duhamel(lam: np.ndarray, terms, t: float):
    """(value, derivative) coefficients of int_0^t sinc((t-s)L)(t-s) f(s) ds."""
    val, dva = np.zeros(len(lam)), np.zeros(len(lam))
    for g, c in terms:
        if t <= g.support[0] or t == 0.0:
            continue
        val += g.sinc_moment(lam, t, (0.0, t)) * c
        dva += g.cos_moment(lam, t, (0.0, t)) * c
    return val, dva


def evolve(
    dec1: SpectralDecomposition,
    ops: DecOperators,
    state0: MaxwellState,
    source: CurrentSource | None,
    t_targets,
) -> list[MaxwellState]:
    """Propagate Cauchy data (E0, B0) through the twisted Maxwell system.

    ``dec1`` is the complete eigensystem (V_1, Lambda) of Delta_1.  E is
    propagated in its coefficients, and so is B(t) = B_h + d_1 V_1 c(t): an
    exact 2-form b is carried by c = Lambda^+ V_1^T d_1^T M_2 b, for which
    d_1 V_1 c = d_1 Delta_1^+ delta~ b is b's exact part whatever basis V_1
    picks inside a degenerate eigenspace.  The harmonic part B_h = B0 - d_1 V_1
    c(0) is static and must be co-closed, ||delta~ B_h|| <= CONSTRAINT_TOL *
    max(||B0||, 1); otherwise a ValueError names the measured value.
    """
    lam, V = dec1.lam, dec1.vectors
    kd = dec1.kernel_dim
    inv = np.zeros(len(lam))
    inv[kd:] = 1.0 / dec1.evals[kd:]
    d1, M2 = ops.d(1), ops.mass(2)

    def b_coeffs(b):
        return inv * (V.T @ (d1.T @ (M2 @ b)))

    def b_synth(c):
        return d1 @ (V @ c)

    source = source or CurrentSource()
    E0, B0 = state0.E, state0.B
    rho0 = source.rho_at(0.0, ops.n(0))
    dB0, tolB = ops.norm(3, ops.d(2) @ B0), CONSTRAINT_TOL * max(ops.norm(2, B0), 1.0)
    if dB0 > tolB:
        raise ValueError(
            f"initial magnetic constraint d B0 = 0 violated: |d B0| {dB0:.2e} > {tolB:.2e}"
        )
    gauss = ops.norm(0, ops.apply_codifferential(1, E0) + rho0)
    tolE = CONSTRAINT_TOL * max(ops.norm(1, E0), 1.0)
    if gauss > tolE:
        raise ValueError(
            f"initial Gauss constraint violated: |delta~ E0 + rho0| {gauss:.2e} > {tolE:.2e}"
        )

    Edot0 = ops.apply_codifferential(2, B0) - source.j_at(0.0, ops.n(1))
    Bdot0 = -(d1 @ E0)

    cE0, cE1 = dec1.coefficients(E0), dec1.coefficients(Edot0)
    cB0, cB1 = b_coeffs(B0), b_coeffs(Bdot0)
    B_h = B0 - b_synth(cB0)
    coclosed = ops.norm(1, ops.apply_codifferential(2, B_h))
    if coclosed > tolB:
        raise ValueError(
            f"harmonic part of B0 is not co-closed: |delta~ B_h| {coclosed:.2e} > {tolB:.2e}"
        )

    # forcing terms: alpha = -d rho_hat - dj_hat/dt ; beta = d j_hat
    alpha_terms = [(g.derivative().scaled(-1.0), dec1.coefficients(c)) for g, c in source.j_terms]
    alpha_terms += [(g, dec1.coefficients(-(ops.d(0) @ c))) for g, c in source.rho_terms]
    beta_terms = [(g, b_coeffs(d1 @ c)) for g, c in source.j_terms]

    out = []
    for t in t_targets:
        ev, ed = homogeneous(lam, cE0, cE1, t)
        qv, qd = duhamel(lam, alpha_terms, t)
        bv, bd = homogeneous(lam, cB0, cB1, t)
        rv, rd = duhamel(lam, beta_terms, t)
        out.append(
            MaxwellState(
                t=float(t),
                E=V @ (ev + qv),
                B=B_h + b_synth(bv + rv),
                Edot=V @ (ed + qd),
                Bdot=b_synth(bd + rd),
            )
        )
    return out


def constraint_residuals(
    ops: DecOperators, state: MaxwellState, source: CurrentSource | None = None
) -> dict:
    source = source or CurrentSource()
    res = {
        "dB": ops.norm(3, ops.d(2) @ state.B),
        "gauss": ops.norm(
            0, ops.apply_codifferential(1, state.E) + source.rho_at(state.t, ops.n(0))
        ),
    }
    if state.Edot is not None:
        r = state.Edot - ops.apply_codifferential(2, state.B) + source.j_at(state.t, ops.n(1))
        res["ampere"] = ops.norm(1, r)
    if state.Bdot is not None:
        res["faraday"] = ops.norm(2, state.Bdot + ops.d(1) @ state.E)
    return res


def classical_energy(ops: DecOperators, state: MaxwellState) -> float:
    return 0.5 * (ops.inner(1, state.E, state.E) + ops.inner(2, state.B, state.B))


@dataclass
class PotentialTrajectory:
    """Lorenz-gauge potential (phi(t), A(t)) with its time derivatives."""

    phi: np.ndarray
    A: np.ndarray
    phidot: np.ndarray
    Adot: np.ndarray
    t: float

    def field_state(self, ops: DecOperators) -> MaxwellState:
        E = ops.d(0) @ self.phi - self.Adot
        B = ops.d(1) @ self.A
        return MaxwellState(t=self.t, E=E, B=B)

    def gauge_residual(self, ops: DecOperators) -> float:
        return ops.norm(0, self.phidot + ops.apply_codifferential(1, self.A))


def potential_evolve(
    dec0: SpectralDecomposition,
    dec1: SpectralDecomposition,
    ops: DecOperators,
    A0: np.ndarray,
    Adot0: np.ndarray,
    source: CurrentSource | None,
    t_targets,
) -> list[PotentialTrajectory]:
    """Evolve the vector potential with zero initial scalar part."""
    lam0, lam1 = dec0.lam, dec1.lam
    V0, V1 = dec0.vectors, dec1.vectors
    source = source or CurrentSource()
    div = ops.norm(0, ops.apply_codifferential(1, A0))
    tol = CONSTRAINT_TOL * max(ops.norm(1, A0), 1.0)
    if div > tol:
        raise ValueError(
            f"initial potential A0 must be co-closed: |delta~ A0| {div:.2e} > {tol:.2e}"
        )
    cA0, cA1 = dec1.coefficients(A0), dec1.coefficients(Adot0)
    phi_terms = [(g, dec0.coefficients(-c)) for g, c in source.rho_terms]
    a_terms = [(g, dec1.coefficients(c)) for g, c in source.j_terms]
    out = []
    for t in t_targets:
        fv, fd = duhamel(lam0, phi_terms, t)
        av, ad = homogeneous(lam1, cA0, cA1, t)
        qv, qd = duhamel(lam1, a_terms, t)
        out.append(
            PotentialTrajectory(
                phi=V0 @ fv,
                A=V1 @ (av + qv),
                phidot=V0 @ fd,
                Adot=V1 @ (ad + qd),
                t=float(t),
            )
        )
    return out


def leapfrog_oracle(
    ops: DecOperators,
    state0: MaxwellState,
    t_end: float,
    n_steps: int,
) -> MaxwellState:
    """Tiny-step symplectic integrator on the same matrices (test oracle)."""
    dt = t_end / n_steps
    E = state0.E.copy()
    B = state0.B.copy()
    B -= 0.5 * dt * (ops.d(1) @ E)
    for _ in range(n_steps):
        E += dt * ops.apply_codifferential(2, B)
        B -= dt * (ops.d(1) @ E)
    B += 0.5 * dt * (ops.d(1) @ E)
    return MaxwellState(t=t_end, E=E, B=B)
