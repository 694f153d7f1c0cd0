import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from decem.timeprofiles import Impulse, TimeProfile


def test_polynomial_exact():
    p = TimeProfile.polynomial([1.0, -2.0, 3.0], (0.0, 2.0))
    ts = np.linspace(0, 2, 17)
    assert np.allclose(p(ts), 1 - 2 * ts + 3 * ts**2, rtol=1e-13)
    assert p(2.5) == 0.0  # outside support


def test_bump_normalised():
    b = TimeProfile.bump(-0.5, 1.5)
    assert abs(b.integral() - 1.0) <= 1e-12
    assert b(-0.5) == 0.0 and b(1.5) == 0.0
    assert b(0.5) > 0


def test_derivative_matches_finite_differences():
    b = TimeProfile.bump(0.0, 1.0)
    db = b.derivative()
    ts = np.linspace(0.05, 0.95, 7)
    h = 1e-6
    fd = (b(ts + h) - b(ts - h)) / (2 * h)
    assert np.allclose(db(ts), fd, atol=1e-6, rtol=1e-5)


def test_shift():
    b = TimeProfile.bump(0.0, 1.0)
    s = b.shift(0.3)
    assert abs(s(0.8) - b(0.5)) <= 1e-14
    assert s.support == (0.3, 1.3)


@given(lam=st.floats(min_value=0.0, max_value=60.0), t=st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=20, deadline=None)
def test_cos_moment_against_quad(lam, t):
    b = TimeProfile.bump(-0.4, 0.9)
    got = b.cos_moment(np.array([lam]), t)[0]
    want, _err = quad(lambda s: b(s) * np.cos(lam * (t - s)), -0.4, 0.9, limit=400)
    assert abs(got - want) <= 1e-10


@given(lam=st.floats(min_value=0.0, max_value=60.0))
@settings(max_examples=20, deadline=None)
def test_sinc_moment_against_quad(lam):
    b = TimeProfile.bump(-0.3, 0.7)
    t = 0.4
    got = b.sinc_moment(np.array([lam]), t)[0]
    if lam < 1e-150:  # sin(lam x)/lam = x in double precision; lam x would underflow
        want, _ = quad(lambda s: b(s) * (t - s), -0.3, 0.7, limit=400)
    else:
        want, _ = quad(lambda s: b(s) * np.sin(lam * (t - s)) / lam, -0.3, 0.7, limit=400)
    assert abs(got - want) <= 1e-10


def _gauss_legendre_in_t(F, breaks, lam_max):
    """int F(tau) dtau over [breaks[0], breaks[-1]] by 16-point Gauss-Legendre on panels
    of at most one radian of phase, split at ``breaks``."""
    xs, ws = np.polynomial.legendre.leggauss(16)
    total = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        edges = np.linspace(a, b, int(np.ceil((b - a) * max(lam_max, 1.0))) + 2)
        for lo, hi in zip(edges[:-1], edges[1:]):
            h = 0.5 * (hi - lo)
            total = total + sum(w * h * F(0.5 * (lo + hi) + h * x) for x, w in zip(xs, ws))
    return total


@pytest.mark.parametrize("t", [0.6, 1.7])
def test_integral_moment_is_the_t_integral_of_sinc_moment(t):
    """Two paths to int g(s)(1 - cos(lam(t-s)))/lam^2 ds: integral_moment against a
    composite Gauss-Legendre integral in t of sinc_moment, split where the window
    meets the support.  Without a window the integral from t0 = -0.5 is the difference
    of two moments, so it is bounded relative to their sizes."""
    g = TimeProfile.bump(0.1, 0.9)
    lam = np.array([0.0, 0.5, 3.0, 17.0, 60.0])
    cuts = [c for c in (0.1, 0.9) if c < t] + [t]
    hi, lo = g.integral_moment(lam, t), g.integral_moment(lam, -0.5)
    want = _gauss_legendre_in_t(lambda tau: g.sinc_moment(lam, tau), [-0.5] + cuts, lam.max())
    assert np.all(np.abs(hi - lo - want) <= 1e-12 * (np.abs(hi) + np.abs(lo)))
    got = g.integral_moment(lam, t, (0.0, t))
    want = _gauss_legendre_in_t(
        lambda tau: g.sinc_moment(lam, tau, (0.0, tau)), [0.0] + cuts, lam.max()
    )
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_window_clipping():
    b = TimeProfile.bump(0.0, 1.0)
    lam = np.array([3.0])
    full = b.cos_moment(lam, 0.0)
    half = b.cos_moment(lam, 0.0, window=(0.0, 0.5))
    want, _ = quad(lambda s: b(s) * np.cos(3.0 * s), 0.0, 0.5, limit=200)
    assert abs(half[0] - want) <= 1e-10
    assert abs(full[0] - half[0]) > 1e-6  # the clip matters


def test_impulse_algebra():
    i = Impulse(0.5, 0)
    assert i.derivative().order == 1
    assert i.shift(0.2).t0 == 0.7
    with pytest.raises(Exception):
        _ = TimeProfile([])
