"""One-particle structure, propagator pairings and quasifree n-point values.

Spacetime test forms are finite sums of (time profile x spatial cochain).
Degree-1 forms split into a dt-part (0-cochain) and a spatial part
(1-cochain); degree-2 forms into an electric part (1-cochain wedged with dt)
and a magnetic part (2-cochain).  The commutator propagator maps a test form
to Cauchy data at t = 0, and everything downstream (the Krein map, the
pairings, the two-point function) is built from those data with the quarter
powers of the Hodge Laplacians.

Every function of Delta_p goes through one calculus per degree,
``calc.functions(x, fs)`` with f a function of the frequencies lam =
sqrt(Delta_p): a complete exact ``SpectralDecomposition`` or a
``LanczosCalculus`` on Delta_p and its kernel basis, which deflates the kernel and
so needs each f only finite at 0 (run qft checks that ker Delta_0 is empty, by
rank d_0 = n_0; no Delta^+ is applied).  A test-form term g x c contributes the
time moments of g applied to c, and the Krein map composes the quarter powers with
them, lam^(1/2) times the sinc moment and lam^(-1/2) times the cos moment, so the
term's cochain c is the only start vector.  Both powers are 0 at lam = 0:
Delta^(-1/4) drops the kernel.  The start vectors of one degree go to the calculus
as one block (``functions(X, fss)``, one function list per column): the terms of a
form in :meth:`FieldCalculus.propagate_G`, and the terms of every form in one
:meth:`FieldCalculus.kappa` call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import DecOperators
from .spectral import ProjectorQ
from .timeprofiles import Impulse, TimeProfile


def _power(s: float):
    """lam -> lam^s for lam > 0, and 0 at lam = 0 (on the kernel)."""

    def f(lam: np.ndarray) -> np.ndarray:
        out = np.zeros_like(lam)
        pos = lam > 0
        out[pos] = lam[pos] ** s
        return out

    return f


_QUARTER, _MINUS_QUARTER = _power(0.5), _power(-0.5)  # Delta^(1/4), Delta^(-1/4)


# per spacetime degree p: the part alpha ^ dt (alpha a spatial (p-1)-cochain) and the
# spatial part beta (a p-cochain); a 0-form has no dt part
PARTS = {0: (None, "spatial"), 1: ("dt", "spatial"), 2: ("e", "b"), 3: ("dt", "spatial")}


@dataclass(frozen=True)
class FormTerm:
    profile: TimeProfile | Impulse
    part: str  # one of PARTS[degree]
    cochain: np.ndarray


@dataclass
class TestForm:
    __test__ = False  # not a pytest test class, despite the name

    degree: int
    terms: list[FormTerm]

    def shifted(self, dt: float) -> "TestForm":
        return TestForm(
            self.degree,
            [FormTerm(t.profile.shift(dt), t.part, t.cochain) for t in self.terms],
        )

    @classmethod
    def impulse2(cls, e_part: np.ndarray, b_part: np.ndarray) -> "TestForm":
        """(E ^ dt + B) x delta(t): Cauchy-data semantics."""
        return cls(
            2,
            [
                FormTerm(Impulse(), "e", e_part),
                FormTerm(Impulse(), "b", b_part),
            ],
        )


@dataclass
class CauchyData:
    phi: np.ndarray
    A: np.ndarray
    phidot: np.ndarray
    Adot: np.ndarray


@dataclass
class KreinVector:
    scalar: np.ndarray
    vector: np.ndarray


@dataclass
class ZeroModeExpectation:
    mean: float
    variance: float
    support_flag: bool
    psi_eps_deviation: float

    def __iter__(self):
        return iter((self.mean, self.variance, self.support_flag))


class FieldCalculus:
    """Bundles the functional calculi of Delta_0 and Delta_1 (see the module docstring)
    and the projector policy of one geometry side."""

    def __init__(self, ops: DecOperators, calc0, calc1, Q: ProjectorQ | None = None):
        self.ops = ops
        self.calc = {0: calc0, 1: calc1}
        self.Q = Q

    # -- spacetime calculus on test forms -----------------------------------------

    def codifferential_form(self, f: TestForm) -> TestForm:
        """delta (alpha ^ dt + beta) = (delta~ alpha) ^ dt + (-1)^(p-1) alpha' + delta~ beta.

        For degree p = 1..3, alpha a spatial (p-1)-cochain and beta a p-cochain; the
        adjoint of :meth:`d_form` under the spacetime pairing int (-<alpha, gamma> +
        <beta, eta>) dt of compactly supported forms alpha ^ dt + beta, gamma ^ dt + eta:
        integrating <d g, f> by parts in time gives the sign on alpha'.
        """
        p = f.degree
        if not 1 <= p <= 3:
            raise ValueError(f"codifferential_form expects degree 1..3, got {f.degree}")
        (dt_in, sp_in), (dt_out, sp_out) = PARTS[p], PARTS[p - 1]
        ops = self.ops
        terms: list[FormTerm] = []
        for t in f.terms:
            if t.part == dt_in:
                if p > 1:
                    terms.append(
                        FormTerm(t.profile, dt_out, ops.apply_codifferential(p - 1, t.cochain))
                    )
                terms.append(FormTerm(t.profile.derivative(), sp_out, (-1) ** (p - 1) * t.cochain))
            elif t.part == sp_in:
                terms.append(FormTerm(t.profile, sp_out, ops.apply_codifferential(p, t.cochain)))
            else:
                raise ValueError(f"bad degree-{p} part {t.part!r}")
        return TestForm(p - 1, terms)

    def d_form(self, h: TestForm) -> TestForm:
        """d (alpha ^ dt + beta) = (d alpha + (-1)^p beta') ^ dt + d beta, degree p = 0..2."""
        p = h.degree
        if not 0 <= p <= 2:
            raise ValueError(f"d_form expects degree 0..2, got {h.degree}")
        (dt_in, sp_in), (dt_out, sp_out) = PARTS[p], PARTS[p + 1]
        ops = self.ops
        terms: list[FormTerm] = []
        for t in h.terms:
            if t.part == dt_in:
                terms.append(FormTerm(t.profile, dt_out, ops.d(p - 1) @ t.cochain))
            elif t.part == sp_in:
                terms.append(FormTerm(t.profile.derivative(), dt_out, (-1) ** p * t.cochain))
                terms.append(FormTerm(t.profile, sp_out, ops.d(p) @ t.cochain))
            else:
                raise ValueError(f"bad degree-{p} part {t.part!r}")
        return TestForm(p + 1, terms)

    def box_form(self, f: TestForm) -> TestForm:
        """(d delta~ + delta~ d) on a degree-1 test form, acting as g'' c + g (Delta c)."""
        if f.degree != 1:
            raise ValueError("box_form expects a degree-1 form")
        ops = self.ops
        terms: list[FormTerm] = []
        for t in f.terms:
            p = 0 if t.part == "dt" else 1
            lap = self._laplace_cochain(p, t.cochain)
            terms.append(FormTerm(t.profile.derivative().derivative(), t.part, t.cochain))
            terms.append(FormTerm(t.profile, t.part, lap))
        return TestForm(1, terms)

    def _laplace_cochain(self, p: int, c: np.ndarray) -> np.ndarray:
        ops = self.ops
        out = np.zeros_like(c)
        if p < ops.complex.dim:
            out += ops.apply_codifferential(p + 1, ops.d(p) @ c)
        if p > 0:
            out += ops.d(p - 1) @ ops.apply_codifferential(p, c)
        return out

    # -- the commutator propagator --------------------------------------------------

    @staticmethod
    def _moments(term: FormTerm) -> tuple:
        """(sinc-side, cos-side) functions of lam: the term's value and velocity at t = 0."""
        g = term.profile
        if isinstance(g, TimeProfile):
            return (lambda lam: g.sinc_moment(lam, 0.0)), (lambda lam: g.cos_moment(lam, 0.0))
        t0 = g.t0
        if g.order == 0:
            return (lambda lam: -t0 * np.sinc(lam * t0 / np.pi)), (lambda lam: np.cos(lam * t0))
        if g.order == 1:
            return (lambda lam: np.cos(lam * t0)), (lambda lam: lam * np.sin(lam * t0))
        raise ValueError("impulse order beyond 1 not supported")

    def propagate_G(self, f: TestForm) -> CauchyData:
        """Cauchy data at t = 0 of the retarded-minus-advanced solution Gf."""
        if f.degree != 1:
            raise ValueError("propagate_G expects a degree-1 form")
        # rows (value, velocity) per degree: (phi, phidot) and (A, Adot)
        data = {p: np.zeros((2, self.ops.n(p))) for p in (0, 1)}
        cols = {0: [], 1: []}
        for t in f.terms:
            cols[0 if t.part == "dt" else 1].append((t.cochain, self._moments(t)))
        for p in (0, 1):
            for F in self._functions(p, cols[p]):
                data[p] += F
        (phi, phidot), (A, Adot) = data[0], data[1]
        return CauchyData(phi, A, phidot, Adot)

    def _functions(self, p: int, cols: list) -> list[np.ndarray]:
        """``calc[p].functions`` on the (cochain, fs) pairs of ``cols`` as one block."""
        if not cols:
            return []
        X = np.column_stack([c for c, _ in cols])
        return self.calc[p].functions(X, [fs for _, fs in cols])

    # -- pairings ---------------------------------------------------------------------

    def pairing_G(self, f1: TestForm, f2: TestForm) -> float:
        d1, d2 = self.propagate_G(f1), self.propagate_G(f2)
        return self.pairing_G_data(d1, d2)

    def pairing_G_data(self, d1: CauchyData, d2: CauchyData) -> float:
        """Lorentzian-signed symplectic pairing of the Cauchy data of Gf1, Gf2."""
        ops = self.ops
        term1 = -ops.inner(0, d2.phi, d1.phidot) + ops.inner(1, d2.A, d1.Adot)
        term2 = -ops.inner(0, d2.phidot, d1.phi) + ops.inner(1, d2.Adot, d1.A)
        return float(term1 - term2)

    def GZ(self, f1: TestForm, f2: TestForm) -> float:
        d1, d2 = self.propagate_G(f1), self.propagate_G(f2)
        return self.GZ_data(d1, d2)

    def GZ_data(self, d1: CauchyData, d2: CauchyData) -> float:
        ops = self.ops
        q0 = self._q0_apply
        return float(
            -ops.inner(1, q0(d2.Adot), d1.A) + ops.inner(1, q0(d1.Adot), d2.A)
        )

    def _q0_apply(self, x: np.ndarray) -> np.ndarray:
        if self.Q is not None:
            return self.Q.apply_q0(x)
        K = self.calc[1].kernel_basis()
        if K.shape[1] == 0:
            return np.zeros_like(x)
        return K @ (K.T @ (self.ops.mass(1) @ x))

    def _q_apply(self, x: np.ndarray) -> np.ndarray:
        return x - self._q0_apply(x)

    # -- the Krein map ------------------------------------------------------------------

    def kappa(self, f: TestForm | list[TestForm]) -> KreinVector | list[KreinVector]:
        """The Krein vector (Delta_0^(1/4) phi + i Delta_0^(-1/4) phidot,
        Delta_1^(1/4) A + i Delta_1^(-1/4) Q Adot) of the Cauchy data of Gf; for a list
        of forms, the list of their Krein vectors.

        A term g x c of f adds the time moments of g applied to c (:meth:`_moments`),
        and the quarter powers compose with them, so c is the term's one start vector.
        Q Adot = Adot - Q_0 Adot.
        Delta^(-1/4) drops the kernel, so of Q_0's columns only the cutoff mode psi_eps,
        which is not harmonic, contributes: one more start vector, shared by all forms.
        The start vectors of all forms step as one block per degree.
        """
        forms = [f] if isinstance(f, TestForm) else list(f)
        if any(g.degree != 1 for g in forms):
            raise ValueError("kappa expects a degree-1 form")
        kd0 = self.calc[0].kernel_basis().shape[1]
        if kd0:
            raise AssertionError(f"scalar Laplacian has zero modes: kernel dimension {kd0} > 0")
        ops = self.ops
        cols = {0: [], 1: []}
        for g in forms:
            for t in g.terms:
                sv, cv = self._moments(t)
                fs = [
                    lambda lam, sv=sv: _QUARTER(lam) * sv(lam),
                    lambda lam, cv=cv: _MINUS_QUARTER(lam) * cv(lam),
                ]
                if t.part == "dt":
                    cols[0].append((t.cochain, fs))
                else:
                    cols[1].append((t.cochain, fs + [cv]))
        if self.Q is not None:
            cols[1].append((self.Q.psi_eps, [_MINUS_QUARTER]))
        F = {p: self._functions(p, cols[p]) for p in (0, 1)}
        psi_part = F[1].pop()[0] if self.Q is not None else None
        F = {p: iter(F[p]) for p in (0, 1)}
        kappas = []
        for g in forms:
            s, v = np.zeros(ops.n(0), complex), np.zeros(ops.n(1), complex)
            Adot = np.zeros(ops.n(1))
            for t in g.terms:
                if t.part == "dt":
                    F0 = next(F[0])
                    s += F0[0] + 1j * F0[1]
                else:
                    F1 = next(F[1])
                    v += F1[0] + 1j * F1[1]
                    Adot += F1[2]
            kappas.append(self._krein_vector(s, v, Adot, psi_part))
        return kappas[0] if isinstance(f, TestForm) else kappas

    def _krein_vector(self, s, v, Adot, psi_part) -> KreinVector:
        """The Krein vector from the scalar part s, the vector part v before Q_0 and the
        velocity Adot; ``psi_part`` is Delta_1^(-1/4) psi_eps (None without Q_eps)."""
        ops = self.ops
        qa = self._q_apply(Adot)
        K = self.calc[1].kernel_basis()
        if K.shape[1]:
            comp = np.linalg.norm(K.T @ (ops.mass(1) @ qa))
            tol = 1e-8 * max(np.linalg.norm(qa), 1e-300)
            if comp > tol:
                raise ValueError(
                    "Q-projected velocity keeps a kernel component; wrong projector policy: "
                    f"|K^T M Q Adot| {comp:.2e} > {tol:.2e}"
                )
        if self.Q is not None:
            r = self.Q.psi_basis[:, -1] @ (ops.mass(1) @ Adot)  # psi_eps's coefficient in Q_0
            v -= 1j * r * psi_part
        return KreinVector(scalar=s, vector=v)

    def krein_product(self, k1: KreinVector, k2: KreinVector) -> complex:
        """Indefinite product, linear in the first argument: -<s1,s2> + <v1,v2>."""
        ops = self.ops
        m0, m1 = ops.mass(0), ops.mass(1)
        s = np.conj(k2.scalar) @ (m0 @ k1.scalar)
        v = np.conj(k2.vector) @ (m1 @ k1.vector)
        return complex(-s + v)

    # -- two-point and n-point functions ---------------------------------------------

    def omega2_F(self, f1: TestForm, f2: TestForm) -> complex:
        """Reduced field-strength two-point value 0.5 <kappa(delta~ f2), kappa(delta~ f1)>."""
        if f1.degree != 2 or f2.degree != 2:
            raise ValueError("omega2_F expects degree-2 forms")
        k2, k1 = self.kappa([self.codifferential_form(f) for f in (f2, f1)])
        return 0.5 * self.krein_product(k2, k1)

    def wick_npoint(self, forms: list[TestForm]) -> complex:
        """Quasifree n-point value: sum over ordered pairings of omega2_F.  The Krein
        vectors of the distinct forms come from one :meth:`kappa` call."""
        n = len(forms)
        if n % 2 == 1:
            return 0.0 + 0.0j
        distinct = {id(f): f for f in forms}
        kappa_of = dict(
            zip(distinct, self.kappa([self.codifferential_form(f) for f in distinct.values()]))
        )
        kappas = [kappa_of[id(f)] for f in forms]

        def pair_value(i, j):
            return 0.5 * self.krein_product(kappas[j], kappas[i])

        def rec(indices):
            if not indices:
                return 1.0 + 0.0j
            first, rest = indices[0], indices[1:]
            total = 0.0 + 0.0j
            for k, j in enumerate(rest):
                total += pair_value(first, j) * rec(rest[:k] + rest[k + 1 :])
            return total

        return rec(tuple(range(n)))

    # -- zero-mode (Schroedinger sector) expectations -----------------------------------

    def zero_mode_expectation(
        self,
        e_top: np.ndarray,
        e_q: np.ndarray,
        sigma_top: float,
        sigma_q: float,
        f: TestForm,
        q_basis: np.ndarray,
        top_basis: np.ndarray,
    ) -> "ZeroModeExpectation":
        """Gaussian mean and variance of the smeared field in the zero-mode sector.

        The readout coordinates pair the time-integrated electric smearing
        against the harmonic basis; these pairings are exact identities of the
        propagator, so mean = <E_top + E_q, alpha-bar> holds for every form.
        The distinguished coordinate can also be read through the cutoff mode
        psi_eps; its deviation from the exact value is reported, and the
        support flag marks smearings that overlap the cutoff transition shell
        (where that deviation is expected to be material).
        """
        if f.degree != 2:
            raise ValueError("zero-mode expectation expects a degree-2 form")
        if self.Q is None:
            raise ValueError("zero-mode expectation needs the Q_eps projector")
        ops = self.ops
        psi = self.Q.psi_basis
        L = psi.shape[1]
        M = ops.mass(1)

        # time-integrated electric smearing and the cos-propagated profile
        alpha_bar = np.zeros(ops.n(1))
        X = np.zeros(ops.n(1))
        for t in f.terms:
            if t.part != "e":
                continue
            if isinstance(t.profile, Impulse):
                raise ValueError("zero-mode expectation needs smooth profiles")
            alpha_bar += t.profile.integral() * t.cochain
            X += self.calc[1].functions(t.cochain, self._moments(t)[1:])[0]

        w = (M @ psi).T @ alpha_bar
        psi_eps_readout = float(X @ (M @ self.Q.psi_eps))
        deviation = abs(psi_eps_readout - w[L - 1])

        e_tot = e_top + e_q
        coords_e = psi.T @ (M @ e_tot)
        mean = float(w @ coords_e)

        wvec = psi @ w
        wq = q_basis.T @ (M @ wvec) if q_basis.shape[1] else np.zeros(0)
        wt = top_basis.T @ (M @ wvec) if top_basis.shape[1] else np.zeros(0)
        variance = float(sigma_top**2 * (wt @ wt) + sigma_q**2 * (wq @ wq))

        flag = self._support_overlap(f)
        return ZeroModeExpectation(mean, variance, flag, deviation)

    def _support_overlap(self, f: TestForm) -> bool:
        meta = self.Q.cutoff_meta
        lo = meta["r_plateau"] / self.Q.eps
        hi = meta["r_zero"] / self.Q.eps
        cplx = self.ops.complex
        edges = cplx.simplices[1][self.ops.kept[1]]
        mid = 0.5 * (cplx.vertices[edges[:, 0]] + cplx.vertices[edges[:, 1]])
        r = np.linalg.norm(mid - meta["center"][None, :], axis=1)
        shell = (r > lo) & (r < hi)
        for t in f.terms:
            if t.part == "e" and np.any(np.abs(t.cochain[shell]) > 1e-12 * max(np.abs(t.cochain).max(), 1e-300)):
                return True
        return False
