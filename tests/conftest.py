"""Shared fixtures: the expensive spectral bundles are built once per session."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from decem.forms import DecOperators
from decem.geometries import ball_shell_complex, canned_scenario, qft_box_scenario
from decem.hodge import harmonic_basis
from decem.mesh import carve_obstacle
from decem.qft import FieldCalculus
from decem.spectral import assemble_laplacian, build_Q_eps, eig


@dataclass
class QftBundle:
    scenario: object
    ops: object
    L0: object
    L1: object
    L2: object
    dec0: object
    dec1: object
    dec2: object
    Q: object
    fc: FieldCalculus
    hb: object  # harmonic_basis(dec1, ops): its capacity and potential u


@pytest.fixture(scope="session")
def qft_bundle() -> QftBundle:
    sc = qft_box_scenario()
    ops = DecOperators(sc.carved)
    L0 = assemble_laplacian(ops, 0)
    L1 = assemble_laplacian(ops, 1)
    L2 = assemble_laplacian(ops, 2)
    dec0, dec1, dec2 = eig(L0), eig(L1), eig(L2)
    hb = harmonic_basis(dec1, ops)
    Q = build_Q_eps(
        hb, ops, eps=1.0, center=np.array([3.0, 3.0, 3.0]), r_plateau=2.0, r_zero=2.8,
    )
    fc = FieldCalculus(ops, dec0, dec1, Q=Q)
    return QftBundle(sc, ops, L0, L1, L2, dec0, dec1, dec2, Q, fc, hb)


@pytest.fixture(scope="session")
def stress_bundle():
    """(st, X1, X2, rep): X1 and X2 are the dense reference kernels, and rep is
    built by the engine from its own ``kernel_blocks``."""
    from decem.geometries import stress_box_scenario
    from decem.stress import ScenarioStress, local_energy_density
    from stress_reference import dense_difference_kernel

    st = ScenarioStress.build(stress_box_scenario())
    X1 = dense_difference_kernel(st, "D1")
    X2 = dense_difference_kernel(st, "D2")
    rep = local_energy_density(st)
    return st, X1, X2, rep


@dataclass
class ShellBundle:
    scenario: object
    ops: object
    dec: object  # partial eig of Delta_1, past its kernel
    hb: object  # harmonic_basis(dec, ops)


@pytest.fixture(scope="session")
def shell_bundle() -> ShellBundle:
    shell = ball_shell_complex(0.5, 4.0, n_core=4, n_layers=10)
    sc = carve_obstacle(shell, {"core"})
    ops = DecOperators(sc.carved)
    dec = eig(assemble_laplacian(ops, 1), count=6)
    return ShellBundle(sc, ops, dec, harmonic_basis(dec, ops))


@dataclass
class WormholeBundle:
    scenario: object
    ops: object
    dec1: object
    Q: object
    fc: FieldCalculus
    q_basis: np.ndarray
    top_basis: np.ndarray


@pytest.fixture(scope="session")
def wormhole_bundle() -> WormholeBundle:
    from decem.hodge import sector_split

    sc = canned_scenario("wormhole_obstacle")
    ops = DecOperators(sc.carved)
    dec1 = eig(assemble_laplacian(ops, 1))
    Q = build_Q_eps(
        harmonic_basis(dec1, ops), ops, eps=1.0, center=np.array([6.0, 3.0, 3.0]),
        r_plateau=2.0, r_zero=2.6,
    )
    fc = FieldCalculus(ops, None, dec1, Q=Q)
    qb, tb = sector_split(dec1, ops)
    return WormholeBundle(sc, ops, dec1, Q, fc, qb, tb)
