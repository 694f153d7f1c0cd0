"""The dense spectral Helmholtz split, kept as a test oracle for ``decem.hodge``.

``dense_split`` is the engine's earlier ``HelmholtzSolver.split``: the
harmonic part from the kernel of a complete exact decomposition, and
Delta^+ by spectral synthesis, ``dec.pseudo_inverse``.  The
engine builds no complete decomposition for the split; it takes the kernel
from a partial eigensolve and applies Delta^+ by sparse shifted solves.
"""

from __future__ import annotations

import numpy as np

from decem.hodge import HelmholtzSplit


def dense_split(dec, ops, phi: np.ndarray) -> HelmholtzSplit:
    p = dec.p
    K = dec.kernel_basis()
    harmonic = K @ (K.T @ (dec.M @ phi))
    phi1 = dec.pseudo_inverse(phi)
    d = ops.complex.dim
    exact = ops.d(p - 1) @ ops.apply_codifferential(p, phi1) if p > 0 else np.zeros_like(phi)
    coexact = ops.apply_codifferential(p + 1, ops.d(p) @ phi1) if p < d else np.zeros_like(phi)
    return HelmholtzSplit(phi=np.array(phi, copy=True), harmonic=harmonic, exact=exact,
                          coexact=coexact)
