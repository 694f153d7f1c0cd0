"""Classical Maxwell evolution in media by spectral calculus.

The fields solve second-order wave equations whose Duhamel terms are
evaluated per frequency with oscillatory-safe quadrature; constraints then
hold to quadrature precision because every algebraic identity used in the
continuum derivation (d^2 = 0, adjointness, commutation with the Laplacian)
is exact for the discrete operators.

Every field is a sum of functions of Delta_1 applied to a few cochains:
cos(t lam), t sinc(t lam), -lam sin(t lam), their time integrals and the time
moments of the sources, lam = sqrt(Delta_1).  ``calc.functions(X, fss)``
evaluates them on a block X of start vectors with one function list per column;
a complete exact ``SpectralDecomposition`` and the ``LanczosCalculus`` on Delta_1
and its kernel basis (one Krylov basis per start vector, the bases of a block
stepping in lockstep, no eigensystem) both implement this call shape.  E is one
wave, with no Delta^+.  The field strength is closed, so Faraday's law fixes B
from E: B(t) = B0 - d_1 int_0^t E.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .forms import DecOperators
from .timeprofiles import TimeProfile

CONSTRAINT_TOL = 1e-8  # relative bound on the initial constraints and on f = 1 reproducing x


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


def _at(times, f):
    """f(lam, t) as one function of the frequencies per time."""
    return [lambda lam, t=t: f(lam, t) for t in times]


def wave(calc, x0: np.ndarray, x1: np.ndarray, terms, times) -> tuple[np.ndarray, ...]:
    """u(t), u'(t) and int_0^t u at each time, as (len(times), n) arrays, for
    u'' + Delta u = sum g c with u(0) = x0, u'(0) = x1 and the forcing pairs (g, c)
    in ``terms``.

    u(t) = cos(t lam) x0 + t sinc(t lam) x1 + int_0^t sinc((t-s) lam)(t-s) g(s) ds c,
    lam = sqrt(Delta).  x0, x1 and every forcing cochain are the columns of one
    ``calc.functions`` block call, with every function of every time.  The call also
    evaluates f = 1 on x0 and x1, which an incomplete calculus does not return as x:
    unless |f(Delta) x - x| <= CONSTRAINT_TOL * max(|x|, 1) in the M-norm of
    ``calc.M``, a ValueError names the measured value.
    """
    k = len(times)
    cos = _at(times, lambda lam, t: np.cos(lam * t))
    tsinc = _at(times, lambda lam, t: t * np.sinc(lam * t / np.pi))
    tsinc_int = _at(times, lambda lam, t: 0.5 * (t * np.sinc(lam * t / (2 * np.pi))) ** 2)
    one = [np.ones_like]
    fss = [
        cos + _at(times, lambda lam, t: -lam * np.sin(lam * t)) + tsinc + one,
        tsinc + cos + tsinc_int + one,
    ]
    fss += [
        _at(times, lambda lam, t, g=g: g.sinc_moment(lam, t, (0.0, t)))
        + _at(times, lambda lam, t, g=g: g.cos_moment(lam, t, (0.0, t)))
        + _at(times, lambda lam, t, g=g: g.integral_moment(lam, t, (0.0, t)))
        for g, _ in terms
    ]
    rows = calc.functions(np.column_stack([x0, x1] + [c for _, c in terms]), fss)
    norm = lambda v: np.sqrt(v @ (calc.M @ v))
    for x, r in zip((x0, x1), rows):
        err, tol = norm(r[-1] - x), CONSTRAINT_TOL * max(norm(x), 1.0)
        if err > tol:
            raise ValueError(
                f"functional calculus does not reproduce its start vector: "
                f"|1(Delta) x - x| {err:.2e} > {tol:.2e}"
            )
    total = rows[0][:-1] + rows[1][:-1] + sum(rows[2:])
    return total[:k], total[k : 2 * k], total[2 * k :]


def evolve(
    calc,
    ops: DecOperators,
    state0: MaxwellState,
    source: CurrentSource | None,
    t_targets,
) -> list[MaxwellState]:
    """Propagate Cauchy data (E0, B0) through the twisted Maxwell system.

    ``calc`` is the functional calculus of Delta_1: a complete exact
    :class:`~decem.spectral.SpectralDecomposition` or a
    :class:`~decem.spectral.LanczosCalculus`.  E solves the wave equation on
    1-forms, one :func:`wave` call; B follows from Faraday's law, B(t) = B0 - d_1
    int_0^t E and Bdot = -d_1 E.
    """
    times = [float(t) for t in t_targets]
    d1 = ops.d(1)
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
    # forcing terms: alpha = -d rho_hat - dj_hat/dt
    alpha_terms = [(g.derivative().scaled(-1.0), c) for g, c in source.j_terms]
    alpha_terms += [(g, -(ops.d(0) @ c)) for g, c in source.rho_terms]
    E, Edot, E_int = wave(calc, E0, Edot0, alpha_terms, times)
    return [
        MaxwellState(t=t, E=E[i], B=B0 - d1 @ E_int[i], Edot=Edot[i], Bdot=-(d1 @ E[i]))
        for i, t in enumerate(times)
    ]


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
    calc0,
    calc1,
    ops: DecOperators,
    A0: np.ndarray,
    Adot0: np.ndarray,
    source: CurrentSource | None,
    t_targets,
) -> list[PotentialTrajectory]:
    """Evolve the vector potential with zero initial scalar part.

    ``calc0`` and ``calc1`` are the functional calculi of Delta_0 and Delta_1 (see
    :func:`evolve`).
    """
    times = [float(t) for t in t_targets]
    source = source or CurrentSource()
    div = ops.norm(0, ops.apply_codifferential(1, A0))
    tol = CONSTRAINT_TOL * max(ops.norm(1, A0), 1.0)
    if div > tol:
        raise ValueError(
            f"initial potential A0 must be co-closed: |delta~ A0| {div:.2e} > {tol:.2e}"
        )
    zero0 = np.zeros(ops.n(0))
    phi, phidot, _ = wave(calc0, zero0, zero0, [(g, -c) for g, c in source.rho_terms], times)
    A, Adot, _ = wave(calc1, A0, Adot0, source.j_terms, times)
    return [
        PotentialTrajectory(phi=phi[i], A=A[i], phidot=phidot[i], Adot=Adot[i], t=t)
        for i, t in enumerate(times)
    ]


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
