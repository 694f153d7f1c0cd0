"""Classical Maxwell evolution in media by spectral calculus.

The fields solve second-order wave equations whose Duhamel terms are
evaluated per eigenmode with oscillatory-safe quadrature; constraints then
hold to quadrature precision because every algebraic identity used in the
continuum derivation (d^2 = 0, adjointness, commutation with the Laplacian)
is exact for the discrete operators.

Only the degree-1 eigensystem is needed.  The magnetic field is closed, so it
is exact plus harmonic; d intertwines the Laplacians, f(Delta_2) d_1 =
d_1 f(Delta_1), so its exact part is propagated in the coefficient space of
Delta_1 through G = d_1 V_1.  Its harmonic part is static, and it is checked
to be co-closed before the evolution starts.
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


class SpectralPropagator:
    """cos / sinc propagation plus Duhamel terms over one decomposition."""

    def __init__(self, dec: SpectralDecomposition):
        if not dec.exact:
            raise ValueError("evolution needs a complete exact decomposition")
        self.dec = dec
        lam2 = dec.evals.copy()
        lam2[: dec.kernel_dim] = 0.0
        self.lam = np.sqrt(np.maximum(lam2, 0.0))

    def coeffs(self, x: np.ndarray) -> np.ndarray:
        return self.dec.coefficients(x)

    def synth(self, c: np.ndarray) -> np.ndarray:
        return self.dec.vectors @ c

    def homogeneous(self, c0: np.ndarray, c1: np.ndarray, t: float):
        """Coefficient evolution (value, derivative) for x'' = -lam^2 x."""
        lt = self.lam * t
        cos = np.cos(lt)
        tsinc = t * np.sinc(lt / np.pi)
        val = cos * c0 + tsinc * c1
        dva = -self.lam * np.sin(lt) * c0 + cos * c1
        return val, dva

    def duhamel(self, terms, t: float):
        """(value, derivative) coefficients of int_0^t sinc((t-s)L)(t-s) f(s) ds."""
        val = np.zeros(len(self.lam))
        dva = np.zeros(len(self.lam))
        for g, c in terms:
            if t <= g.support[0] or t == 0.0:
                continue
            window = (0.0, t)
            shat = g.sinc_moment(self.lam, t, window)
            chat = g.cos_moment(self.lam, t, window)
            val += shat * c
            dva += chat * c
        return val, dva


class ExactTwoFormPropagator(SpectralPropagator):
    """Propagation of exact 2-forms in the coefficient space of Delta_1.

    With G = d_1 V_1, f(Delta_2) G c = G f(Lambda) c, so an exact 2-form b is
    carried by c = Lambda^+ G^T M_2 b, for which G c = d_1 Delta_1^+ delta~ b
    is b's exact part whatever basis V_1 picks inside a degenerate eigenspace.
    The frequencies, and so ``homogeneous`` and ``duhamel``, are those of E.
    """

    def __init__(self, dec1: SpectralDecomposition, ops: DecOperators):
        super().__init__(dec1)
        self.G = ops.d(1) @ dec1.vectors
        self.M2 = ops.mass(2)
        self.inv = np.zeros(len(self.lam))
        kd = dec1.kernel_dim
        self.inv[kd:] = 1.0 / dec1.evals[kd:]

    def coeffs(self, b: np.ndarray) -> np.ndarray:
        return self.inv * (self.G.T @ (self.M2 @ b))

    def synth(self, c: np.ndarray) -> np.ndarray:
        return self.G @ c


def evolve(
    dec1: SpectralDecomposition,
    ops: DecOperators,
    state0: MaxwellState,
    source: CurrentSource | None,
    t_targets,
) -> list[MaxwellState]:
    """Propagate Cauchy data (E0, B0) through the twisted Maxwell system.

    ``dec1`` is the complete eigensystem of Delta_1; no eigensystem of Delta_2
    is needed.  E is propagated in Delta_1's coefficients.  B(t) = B_h + G c(t)
    with G = d_1 V_1, by f(Delta_2) d_1 = d_1 f(Delta_1), where the harmonic
    part B_h = B0 - G c(0) of the closed B0 is static.  B_h must be
    co-closed, ||delta~ B_h|| <= CONSTRAINT_TOL * max(||B0||, 1); otherwise
    Delta_1's eigensystem does not carry B0's exact part and a ValueError
    names the measured value.
    """
    source = source or CurrentSource()
    E0, B0 = state0.E, state0.B
    rho0 = source.rho_at(0.0, ops.n(0))
    dB0 = ops.d(2) @ B0
    gauss = ops.apply_codifferential(1, E0) + rho0
    scaleE = max(ops.norm(1, E0), 1.0)
    scaleB = max(ops.norm(2, B0), 1.0)
    if ops.norm(3, dB0) > CONSTRAINT_TOL * scaleB:
        raise ValueError("initial magnetic constraint d B0 = 0 violated")
    if ops.norm(0, gauss) > CONSTRAINT_TOL * scaleE:
        raise ValueError("initial Gauss constraint violated")

    prop1, prop2 = SpectralPropagator(dec1), ExactTwoFormPropagator(dec1, ops)
    Edot0 = ops.apply_codifferential(2, B0) - source.j_at(0.0, ops.n(1))
    Bdot0 = -(ops.d(1) @ E0)

    cE0, cE1 = prop1.coeffs(E0), prop1.coeffs(Edot0)
    cB0, cB1 = prop2.coeffs(B0), prop2.coeffs(Bdot0)
    B_h = B0 - prop2.synth(cB0)
    coclosed, tol = ops.norm(1, ops.apply_codifferential(2, B_h)), CONSTRAINT_TOL * scaleB
    if coclosed > tol:
        raise ValueError(
            f"harmonic part of B0 is not co-closed: |delta~ B_h| {coclosed:.2e} > {tol:.2e}"
        )

    # forcing terms: alpha = -d rho_hat - dj_hat/dt ; beta = d j_hat
    alpha_terms = [(g.derivative().scaled(-1.0), prop1.coeffs(c)) for g, c in source.j_terms]
    alpha_terms += [(g, prop1.coeffs(-(ops.d(0) @ c))) for g, c in source.rho_terms]
    beta_terms = [(g, prop2.coeffs(ops.d(1) @ c)) for g, c in source.j_terms]

    out = []
    for t in t_targets:
        ev, ed = prop1.homogeneous(cE0, cE1, t)
        qv, qd = prop1.duhamel(alpha_terms, t)
        bv, bd = prop2.homogeneous(cB0, cB1, t)
        rv, rd = prop2.duhamel(beta_terms, t)
        out.append(
            MaxwellState(
                t=float(t),
                E=prop1.synth(ev + qv),
                B=B_h + prop2.synth(bv + rv),
                Edot=prop1.synth(ed + qd),
                Bdot=prop2.synth(bd + rd),
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
    source = source or CurrentSource()
    if ops.norm(0, ops.apply_codifferential(1, A0)) > CONSTRAINT_TOL * max(ops.norm(1, A0), 1.0):
        raise ValueError("initial potential A0 must be co-closed")
    prop0, prop1 = SpectralPropagator(dec0), SpectralPropagator(dec1)
    cA0, cA1 = prop1.coeffs(A0), prop1.coeffs(Adot0)
    phi_terms = [(g, prop0.coeffs(-c)) for g, c in source.rho_terms]
    a_terms = [(g, prop1.coeffs(c)) for g, c in source.j_terms]
    out = []
    for t in t_targets:
        fv, fd = prop0.duhamel(phi_terms, t)
        av, ad = prop1.homogeneous(cA0, cA1, t)
        qv, qd = prop1.duhamel(a_terms, t)
        out.append(
            PotentialTrajectory(
                phi=prop0.synth(fv),
                A=prop1.synth(av + qv),
                phidot=prop0.synth(fd),
                Adot=prop1.synth(ad + qd),
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
