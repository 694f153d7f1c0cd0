"""Cochain spaces and the twisted exterior calculus on a simplicial complex.

Discretization is by lowest-order Whitney forms.  The material enters through
the degree-dependent weight eps^2*mu/(eps*mu)^p multiplying the L2 pairing of
p-forms, which makes the codifferential the adjoint of d in the weighted
inner product with no extra terms.  Relative boundary conditions are imposed
by removing every degree of freedom sitting inside a marked boundary facet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations
from math import factorial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Isometry, SimplicialComplex, faces_of


@dataclass
class MaterialField:
    """Piecewise-constant permittivity and permeability, one value per region tag."""

    eps: dict = field(default_factory=dict)
    mu: dict = field(default_factory=dict)

    def __post_init__(self):
        for d in (self.eps, self.mu):
            for tag, val in d.items():
                if val <= 0:
                    raise ValueError(f"material value for region {tag!r} must be positive")

    @classmethod
    def vacuum(cls) -> "MaterialField":
        return cls()

    def eps_of(self, tag: str) -> float:
        return float(self.eps.get(tag, 1.0))

    def mu_of(self, tag: str) -> float:
        return float(self.mu.get(tag, 1.0))

    def weight(self, tag: str, p: int) -> float:
        """tau on p-forms: eps^2 mu (eps mu)^(-p)."""
        e, m = self.eps_of(tag), self.mu_of(tag)
        return e * e * m / (e * m) ** p

    def bounds(self, tags) -> tuple[float, float]:
        vals = [self.eps_of(t) * self.mu_of(t) for t in set(tags)]
        return (min(vals), max(vals))

    def is_vacuum(self) -> bool:
        return all(v == 1.0 for v in self.eps.values()) and all(
            v == 1.0 for v in self.mu.values()
        )


# -- local geometry ---------------------------------------------------------------


def _cell_geometry(cplx: SimplicialComplex):
    """Volumes, barycentric gradients and Gram matrices for every top cell."""
    coords = cplx.cell_vertex_coords()
    d = cplx.dim
    e = np.transpose(coords[:, 1:, :] - coords[:, :1, :], (0, 2, 1))  # (nc, d, d) columns
    vols = np.abs(np.linalg.det(e)) / factorial(d)
    if np.any(vols <= 0):
        raise ValueError("degenerate cell in complex")
    einv = np.linalg.inv(e)  # rows j of einv = gradient of lambda_{j+1}
    grads = np.empty((len(coords), d + 1, d))
    grads[:, 1:, :] = einv
    grads[:, 0, :] = -einv.sum(axis=1)
    gram = np.einsum("cad,cbd->cab", grads, grads)
    return vols, grads, gram


def _lambda_integrals(d: int) -> np.ndarray:
    """(d+1)x(d+1) matrix of integrals of lambda_a lambda_b over the unit-volume cell."""
    return (np.ones((d + 1, d + 1)) + np.eye(d + 1)) / ((d + 1) * (d + 2))


def build_d(cplx: SimplicialComplex, p: int) -> sp.csr_matrix:
    """Signed incidence matrix mapping p-cochains to (p+1)-cochains."""
    if not (0 <= p < cplx.dim):
        raise ValueError(f"degree {p} out of range for dim {cplx.dim}")
    n = cplx.n(p + 1)
    # face k of a simplex omits vertex k and enters with sign (-1)**k
    faces = faces_of(cplx.simplices[p + 1], p + 1)[:, ::-1]
    rows = np.repeat(np.arange(n), p + 2)
    vals = np.tile((-1) ** np.arange(p + 2), n)
    return sp.csr_matrix(
        (vals, (rows, cplx.lookup(p, faces))), shape=(n, cplx.n(p)), dtype=np.int64
    )


def _cell_weights(cplx: SimplicialComplex, material: MaterialField, p: int, vols) -> np.ndarray:
    """Material weight of p-forms times volume for every top cell."""
    weight = {tag: material.weight(tag, p) for tag in set(cplx.regions)}
    return np.array([weight[tag] for tag in cplx.regions]) * vols


def local_mass_blocks(
    cplx: SimplicialComplex, material: MaterialField, p: int, geometry
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell Whitney mass contributions.

    ``geometry`` is ``_cell_geometry(cplx)``.  Returns (face_ids, blocks):
    face_ids[c, i] is the global p-simplex index of local face i in cell c,
    blocks[c] the local (weighted) mass matrix.
    """
    d = cplx.dim
    if not (0 <= p <= d):
        raise ValueError(f"degree {p} out of range")
    vols, _, gram = geometry
    nc = len(vols)
    lam = _lambda_integrals(d)
    weights = _cell_weights(cplx, material, p, vols)

    faces = list(combinations(range(d + 1), p + 1))
    nloc = len(faces)

    @cache
    def minor(ra: tuple[int, ...], rb: tuple[int, ...]) -> np.ndarray:
        """Gram minor of rows ra, columns rb; each distinct one is evaluated once."""
        if p == 0:
            return np.ones(nc)
        if p == 1:
            return gram[:, ra[0], rb[0]]
        return np.linalg.det(gram[:, list(ra)][:, :, list(rb)])

    pf = factorial(p) ** 2
    blocks = np.zeros((nc, nloc, nloc))
    for a, fa in enumerate(faces):
        for b, fb in enumerate(faces):
            if b < a:
                continue
            acc = np.zeros(nc)
            for k in range(p + 1):
                ra = fa[:k] + fa[k + 1 :]
                for l in range(p + 1):
                    rb = fb[:l] + fb[l + 1 :]
                    acc += ((-1) ** (k + l)) * lam[fa[k], fb[l]] * minor(ra, rb)
            blocks[:, a, b] = pf * acc
            blocks[:, b, a] = blocks[:, a, b]
    blocks *= weights[:, None, None]
    return cplx.face_ids(p), blocks


def build_mass(
    cplx: SimplicialComplex, material: MaterialField, p: int, geometry
) -> sp.csr_matrix:
    """Assembled tau-weighted Whitney mass matrix on all p-simplices."""
    face_ids, blocks = local_mass_blocks(cplx, material, p, geometry)
    nloc = face_ids.shape[1]
    rows = np.repeat(face_ids, nloc, axis=1).ravel()
    cols = np.tile(face_ids, (1, nloc)).ravel()
    mat = sp.csr_matrix(
        (blocks.ravel(), (rows, cols)), shape=(cplx.n(p), cplx.n(p))
    )
    mat.sum_duplicates()
    sym_err = abs(mat - mat.T).max() if mat.nnz else 0.0
    if sym_err > 1e-12 * (abs(mat).max() or 1.0):
        raise AssertionError("mass matrix assembly lost symmetry")
    return mat


def _symmetric_factor(A) -> spla.SuperLU:
    """Sparse LU of an SPD or quasi-definite matrix: minimum degree on A^T + A, diagonal pivots.

    A symmetric ordering has less fill than SuperLU's default COLAMD.  Every
    matrix factored here is SPD (a mass matrix, up - sigma M) or quasi-definite
    ([[up - sigma M, K^T], [K, -W]] with sigma < 0: an SPD block and a negative
    definite one).  A quasi-definite matrix has an LDL^T factorization under
    every symmetric permutation (Vanderbei, SIAM J. Optim. 5, 1995), so
    neither kind needs an off-diagonal pivot.
    """
    return spla.splu(
        sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )


def _signed_permutation(img: np.ndarray, sgn: np.ndarray) -> sp.csr_matrix:
    """P with P e_i = sgn[i] e_img[i]."""
    n = len(img)
    return sp.csr_matrix((sgn.astype(float), (img, np.arange(n))), shape=(n, n))


def group_character_bases(elems: list[tuple[np.ndarray, np.ndarray]],
                          chis) -> list[sp.csc_matrix]:
    """One orthonormal basis per character chi (one +-1 per element) of the group
    ``elems`` of signed permutations (image, sign) of n DOFs, identity first: the
    nonzero projections sum_e chi(e) P_e e_i of the orbit representatives i (the lowest
    DOF of each orbit), normalised to +-1/sqrt(|orbit|) on each DOF of the orbit."""
    n = len(elems[0][0])
    reps = np.flatnonzero(np.min([img for img, _ in elems], axis=0) == np.arange(n))
    rows = np.concatenate([img[reps] for img, _ in elems])
    cols = np.tile(np.arange(len(reps)), len(elems))
    bases = []
    for chi in chis:
        vals = np.concatenate([c * sgn[reps] for c, (_, sgn) in zip(chi, elems)])
        # duplicates are summed in integers, so a vanishing projection is exact
        B = sp.csc_matrix((vals, (rows, cols)), shape=(n, len(reps)))
        B.eliminate_zeros()
        B = B[:, np.diff(B.indptr) > 0].astype(float)
        size = np.diff(B.indptr)
        B.data = np.sign(B.data) / np.sqrt(np.repeat(size, size))
        bases.append(B)
    return bases


# -- operator bundle ---------------------------------------------------------------


class _MassByDegree(dict):
    """Full mass matrices keyed by degree, each assembled by :func:`build_mass` on
    first access and kept."""

    def __init__(self, cplx: SimplicialComplex, material: MaterialField, geometry):
        super().__init__()
        self._args = (cplx, material, geometry)

    def __missing__(self, p: int) -> sp.csr_matrix:
        cplx, material, geometry = self._args
        if p not in range(cplx.dim + 1):
            raise KeyError(p)
        mass = self[p] = build_mass(cplx, material, p, geometry)
        return mass


class DecOperators:
    """Incidence and weighted mass matrices of the relative complex of one mesh.

    :meth:`d`, :meth:`mass` and :meth:`n` act on the kept degrees of freedom
    only: every simplex inside a marked boundary facet is removed, which
    imposes the relative boundary conditions.  The matrices on all simplices
    are kept as ``d_full`` and ``mass_full`` for boundary data (the Dirichlet
    potential of the capacity mode lives on every vertex).  ``mass_full[p]``
    is assembled per degree, on first use, and then kept; a command that
    needs one degree never assembles the others.  ``cell_geometry`` is
    :func:`_cell_geometry` of the complex, computed once, eagerly, for every
    per-cell assembly.  :meth:`character_bases` splits the kept DOFs by the
    symmetries of the complex that keep eps and mu; they are looked for only when
    it is first called.
    """

    def __init__(self, cplx: SimplicialComplex, material: MaterialField | None = None):
        self.complex = cplx
        self.material = material if material is not None else MaterialField.vacuum()
        d = cplx.dim
        self.cell_geometry = _cell_geometry(cplx)
        self.d_full = {p: build_d(cplx, p) for p in range(d)}
        self.mass_full = _MassByDegree(cplx, self.material, self.cell_geometry)
        self.kept = {}
        for p in range(d + 1):
            masked = cplx.boundary_subsimplices(p)
            keep = np.ones(cplx.n(p), dtype=bool)
            keep[masked] = False
            self.kept[p] = np.nonzero(keep)[0]
        # caches keyed by (kind, degree): kept slices and factors
        self._cache: dict[tuple[str, int], object] = {}

    # matrix access -----------------------------------------------------------

    def n(self, p: int) -> int:
        return len(self.kept[p])

    def _kept_slice(self, kind: str, p: int, full: sp.csr_matrix, rows, cols) -> sp.csr_matrix:
        if (kind, p) not in self._cache:
            self._cache[kind, p] = full[rows][:, cols].tocsr()
        return self._cache[kind, p]

    def d(self, p: int) -> sp.csr_matrix:
        return self._kept_slice("d", p, self.d_full[p], self.kept[p + 1], self.kept[p])

    def mass(self, p: int) -> sp.csr_matrix:
        return self._kept_slice("mass", p, self.mass_full[p], self.kept[p], self.kept[p])

    def mass_factor(self, p: int) -> spla.SuperLU:
        """M_p's one factor (:func:`_symmetric_factor`), made on first use and kept."""
        if ("factor", p) not in self._cache:
            self._cache["factor", p] = _symmetric_factor(self.mass(p))
        return self._cache["factor", p]

    # symmetry ------------------------------------------------------------------

    @cached_property
    def _generators(self) -> list[Isometry]:
        """A maximal set of commuting involutions among the complex's isometries that
        keep eps and mu on every cell, taken greedily in the order of
        :meth:`SimplicialComplex.isometries`."""
        cplx, d = self.complex, self.complex.dim
        eps = np.array([self.material.eps_of(t) for t in cplx.regions])
        mu = np.array([self.material.mu_of(t) for t in cplx.regions])
        gens, span = [], [np.eye(d)]
        for g in cplx.isometries():
            cells, A = g.maps[d][0], g.A
            if (np.array_equal(eps[cells], eps) and np.array_equal(mu[cells], mu)
                    and np.array_equal(A @ A, np.eye(d))
                    and all(np.array_equal(A @ h.A, h.A @ A) for h in gens)
                    and not any(np.array_equal(A, s) for s in span)):
                gens.append(g)
                span += [A @ s for s in span]
        return gens

    def _group(self, p: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """The symmetry group of the operators on the kept p-DOFs, identity first: per
        element the signed permutation P e_i = sign[i] e_image[i] as (image, sign), with
        P d_p = d_p P.  Element e is the product of the generators in the bits of e, so
        there are 2^k; a complex without symmetry gives the identity alone.  Raises
        unless each generator keeps M_p, P^T M_p P = M_p, to 1e-12 relative."""
        if ("group", p) not in self._cache:
            pos, kept, n, M = self.kept_pos(p), self.kept[p], self.n(p), self.mass(p)
            elems = [(np.arange(n), np.ones(n, dtype=np.int64))]
            for g in self._generators:
                img, sgn = g.maps[p]
                gi, gs = pos[img[kept]], sgn[kept]
                P = _signed_permutation(gi, gs)
                err = abs(P.T @ M @ P - M).max() / abs(M).max() if M.nnz else 0.0
                if err > 1e-12:
                    raise AssertionError(
                        f"M_{p} is not invariant under the symmetry {g.A.astype(int).tolist()}: "
                        f"relative {err:.2e} > 1.00e-12"
                    )
                # g after each element so far: P_g P_e e_i = s_e(i) s_g(e(i)) e_g(e(i))
                elems += [(gi[ei], es * gs[ei]) for ei, es in elems]
            self._cache["group", p] = elems
        return self._cache["group", p]

    def character_bases(self, p: int) -> list[sp.csc_matrix]:
        """One orthonormal basis B_m of the kept p-DOFs per character
        chi_m(e) = (-1)^popcount(m & e) of the symmetry group, m = 0 .. 2^k - 1.

        P_e B_m = chi_m(e) B_m (P_e of :meth:`_group`), so an operator that commutes with the group is block
        diagonal on [B_0, B_1, ...], and d_p B_m lies in the span of B_m of degree
        p + 1.  The columns of B_m are those of :func:`group_character_bases`.
        The column counts sum to n_p; a basis may have none.  Made on first use and kept.
        """
        if ("bases", p) not in self._cache:
            k = len(self._group(p))
            chis = [[(-1) ** bin(m & e).count("1") for e in range(k)] for m in range(k)]
            self._cache["bases", p] = group_character_bases(self._group(p), chis)
        return self._cache["bases", p]

    def symmetry_axes(self) -> list[np.ndarray]:
        """The signed axis permutation A of each element of :meth:`_group`, in its order."""
        axes = [np.eye(self.complex.dim)]
        for g in self._generators:
            axes += [g.A @ A for A in axes]
        return axes

    # calculus ------------------------------------------------------------------

    def apply_codifferential(self, p: int, x: np.ndarray) -> np.ndarray:
        """delta-twiddle on p-cochains: M_{p-1}^{-1} d_{p-1}^T M_p x."""
        if p <= 0:
            raise ValueError("codifferential needs degree >= 1")
        rhs = self.d(p - 1).T @ (self.mass(p) @ x)
        solve = self.mass_factor(p - 1).solve
        if np.iscomplexobj(x):
            return solve(rhs.real) + 1j * solve(rhs.imag)
        return solve(rhs)

    def inner(self, p: int, x: np.ndarray, y: np.ndarray) -> float | complex:
        return np.vdot(y, self.mass(p) @ x) if np.iscomplexobj(x) or np.iscomplexobj(y) else float(
            y @ (self.mass(p) @ x)
        )

    def norm(self, p: int, x: np.ndarray) -> float:
        xr = np.asarray(x)
        v = np.vdot(xr, self.mass(p) @ xr)
        return float(np.sqrt(abs(v)))

    def kept_pos(self, p: int) -> np.ndarray:
        """Position of each p-simplex among the kept DOFs, -1 where masked."""
        pos = np.full(self.complex.n(p), -1, dtype=np.int64)
        pos[self.kept[p]] = np.arange(len(self.kept[p]))
        return pos

    # per-cell data for local traces ----------------------------------------------

    def local_mass(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        return local_mass_blocks(self.complex, self.material, p, self.cell_geometry)

    def component_blocks(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-cell component-resolved Whitney pairings (3D only).

        Returns (face_ids, blocks) with blocks[c, i, l, j, k] the integral over
        cell c of (w_i)_j (tau w_l)_k, where 2-forms enter through their Hodge
        vector proxies.
        """
        cplx = self.complex
        if cplx.dim != 3 or p not in (1, 2):
            raise ValueError("component blocks only for 1- and 2-forms in 3D")
        vols, grads, _ = self.cell_geometry
        nc = len(vols)
        lam = _lambda_integrals(3)
        weights = _cell_weights(cplx, self.material, p, vols)

        faces = list(combinations(range(4), p + 1))

        # terms of each Whitney basis function: list of (lambda index, vector (nc,3))
        def terms(comb):
            if p == 1:
                a, b = comb
                return [(a, grads[:, b, :]), (b, -grads[:, a, :])]
            a, b, c = comb
            return [
                (a, 2 * np.cross(grads[:, b, :], grads[:, c, :])),
                (b, -2 * np.cross(grads[:, a, :], grads[:, c, :])),
                (c, 2 * np.cross(grads[:, a, :], grads[:, b, :])),
            ]

        tlist = [terms(comb) for comb in faces]
        nloc = len(faces)
        blocks = np.zeros((nc, nloc, nloc, 3, 3))
        for i in range(nloc):
            for l in range(nloc):
                acc = np.zeros((nc, 3, 3))
                for la, va in tlist[i]:
                    for lb, vb in tlist[l]:
                        acc += lam[la, lb] * np.einsum("cj,ck->cjk", va, vb)
                blocks[:, i, l] = acc
        blocks *= weights[:, None, None, None, None]
        return cplx.face_ids(p), blocks

