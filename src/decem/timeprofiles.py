"""Compactly supported time profiles and oscillatory quadrature.

A ``TimeProfile`` is stored as Chebyshev pieces on panels.  Its constructors
are polynomial (the bumps of the qft test forms and of the Maxwell sources), so
a profile is represented exactly, and so are its derivatives, shifts and
scalings.  An ``Impulse`` is a Dirac profile, for test forms with Cauchy-data
semantics.  Integrals against cos(lambda (t-s)) and sinc-type kernels are evaluated by
panel-split Gauss-Legendre with the split chosen so no sub-panel sees more
than ~6 radians of phase, which keeps the rule accurate to machine precision
for every eigenvalue at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as C

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(14)
_MAX_PHASE = 6.0


@dataclass(frozen=True)
class Impulse:
    """Dirac profile delta^(order)(t - t0); only orders 0 and 1 are used."""

    t0: float = 0.0
    order: int = 0

    def shift(self, dt: float) -> "Impulse":
        return Impulse(self.t0 + dt, self.order)

    def derivative(self) -> "Impulse":
        return Impulse(self.t0, self.order + 1)


class TimeProfile:
    """Piecewise-Chebyshev smooth profile with compact support."""

    def __init__(self, panels: list[tuple[float, float, np.ndarray]]):
        self.panels = [(float(a), float(b), np.asarray(c, dtype=float)) for a, b, c in panels]
        if not self.panels:
            raise ValueError("profile needs at least one panel")
        self.support = (self.panels[0][0], self.panels[-1][1])

    # -- constructors ------------------------------------------------------------

    @classmethod
    def polynomial(cls, power_coeffs, support: tuple[float, float]):
        """Exact representation of sum_k c_k t^k restricted to the support."""
        a, b = support
        pc = np.asarray(power_coeffs, dtype=float)
        # rescale t = m + h u onto [-1, 1]
        m, h = 0.5 * (a + b), 0.5 * (b - a)
        poly = np.polynomial.polynomial.Polynomial(pc)
        scaled = poly(np.polynomial.polynomial.Polynomial([m, h]))
        coeffs = np.polynomial.chebyshev.poly2cheb(scaled.coef)
        return cls([(a, b, coeffs)])

    @classmethod
    def bump(cls, a: float, b: float):
        """Polynomial bump (t-a)^4 (b-t)^4, normalised to unit integral."""
        base = np.polynomial.polynomial.Polynomial([-a, 1.0]) ** 4 * (
            np.polynomial.polynomial.Polynomial([b, -1.0]) ** 4
        )
        prof = cls.polynomial(base.coef, (a, b))
        return prof.scaled(1.0 / prof.integral())

    # -- algebra -----------------------------------------------------------------

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for a, b, c in self.panels:
            mask = (t >= a) & (t <= b)
            if np.any(mask):
                u = (2 * t[mask] - (a + b)) / (b - a)
                out[mask] = C.chebval(u, c)
        return out if out.ndim else float(out)

    def scaled(self, s: float) -> "TimeProfile":
        return TimeProfile([(a, b, s * c) for a, b, c in self.panels])

    def derivative(self) -> "TimeProfile":
        out = []
        for a, b, c in self.panels:
            out.append((a, b, C.chebder(c) * (2.0 / (b - a))))
        return TimeProfile(out)

    def shift(self, dt: float) -> "TimeProfile":
        return TimeProfile([(a + dt, b + dt, c) for a, b, c in self.panels])

    def integral(self) -> float:
        tot = 0.0
        for a, b, c in self.panels:
            integ = C.chebint(c)
            tot += (C.chebval(1.0, integ) - C.chebval(-1.0, integ)) * (b - a) / 2.0
        return tot

    # -- oscillatory integrals ------------------------------------------------------

    def _nodes(self, a: float, b: float, max_lam: float):
        m = max(1, int(np.ceil((b - a) * max_lam / _MAX_PHASE)))
        edges = np.linspace(a, b, m + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        s = (mids[:, None] + half * _GL_NODES[None, :]).ravel()
        w = np.tile(half * _GL_WEIGHTS, m)
        return s, w

    def cos_moment(self, lam: np.ndarray, t: float, window=None) -> np.ndarray:
        """int g(s) cos(lambda (t-s)) ds over support (optionally clipped)."""
        return self._moment(lam, t, window, kind="cos")

    def sinc_moment(self, lam: np.ndarray, t: float, window=None) -> np.ndarray:
        """int g(s) sin(lambda(t-s))/lambda ds with the lambda->0 limit built in."""
        return self._moment(lam, t, window, kind="sinc")

    def integral_moment(self, lam: np.ndarray, t: float, window=None) -> np.ndarray:
        """int g(s) (1 - cos(lambda(t-s)))/lambda^2 ds, the t-integral of sinc_moment,
        with the lambda->0 limit (t-s)^2/2 built in."""
        return self._moment(lam, t, window, kind="integral")

    def _moment(self, lam, t, window, kind) -> np.ndarray:
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        out = np.zeros(len(lam))
        max_lam = float(lam.max()) if len(lam) else 0.0
        for a, b, _c in self.panels:
            if window is not None:
                a, b = max(a, window[0]), min(b, window[1])
            if b <= a:
                continue
            s, w = self._nodes(a, b, max_lam)
            g = self(s) * w
            ts = t - s
            phase = np.multiply.outer(lam, ts)
            if kind == "cos":
                out += np.cos(phase) @ g
            elif kind == "sinc":
                out += (np.sinc(phase / np.pi) * ts[None, :]) @ g
            else:
                out += (0.5 * np.sinc(phase / (2 * np.pi)) ** 2 * ts[None, :] ** 2) @ g
        return out
