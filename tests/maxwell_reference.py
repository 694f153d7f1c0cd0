"""The G = d_1 V_1 Maxwell propagator, kept as a reference for ``decem.maxwell.evolve``.

``evolve`` below is the engine's earlier evolution, unchanged: it stores the
dense n_2 x n_1 matrix G = d_1 V_1 and propagates B's exact part as G c.  The
engine now applies d_1 and V_1 one after the other; the two paths are the
same identity f(Delta_2) d_1 = d_1 f(Delta_1) and agree to rounding.
"""

from __future__ import annotations

import numpy as np

from decem.forms import DecOperators
from decem.maxwell import CONSTRAINT_TOL, CurrentSource, MaxwellState
from decem.spectral import SpectralDecomposition


class SpectralPropagator:
    """cos / sinc propagation plus Duhamel terms over one decomposition."""

    def __init__(self, dec: SpectralDecomposition):
        if not dec.complete:
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

