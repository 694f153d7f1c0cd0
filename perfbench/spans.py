"""Per-layer spans around `decem`'s public functions, installed from outside.

`Tracer.install()` imports the `decem` modules in dependency order and
replaces each listed function or method by a wrapper, at the module or class
attribute, before `decem.cli` and `decem.stress` are imported; names they bind
with ``from ... import`` therefore see the wrappers.  `src/` is not modified.

A span opens where a call crosses into a layer group from another group (or
from the operation itself); calls inside the group run unwrapped.  A group's
self time is the summed duration of its spans minus the spans of other groups
nested inside them.  Counters are kept for every call, nested or not.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# module -> {qualified name: layer group}; an eig call picks its group from `count`
LAYERS: dict[str, dict[str, str]] = {
    "decem.mesh": {
        "SimplicialComplex.from_top_cells": "mesh.build",
        "SimplicialComplex.index": "mesh.build",
        "SimplicialComplex.coface_counts": "mesh.build",
        "SimplicialComplex.boundary_facets": "mesh.build",
        "SimplicialComplex.boundary_subsimplices": "mesh.build",
        "SimplicialComplex.cell_volumes": "mesh.build",
        "SimplicialComplex.check_closure": "mesh.build",
        "SimplicialComplex.validate": "mesh.build",
        "SimplicialComplex.to_text": "mesh.text",
        "SimplicialComplex.metadata": "mesh.text",
        "SimplicialComplex.metadata_json": "mesh.text",
        "load_complex": "mesh.build",
        "carve_obstacle": "mesh.build",
        "boundary_components": "mesh.build",
        "glue_vertices": "mesh.build",
        "orientable": "mesh.build",
    },
    "decem.forms": {
        "DecOperators.__init__": "forms.assemble",
        "reduce_relative": "forms.assemble",
        "DecOperators.d": "forms.calculus",
        "DecOperators.mass": "forms.calculus",
        "DecOperators.mass_factor": "forms.calculus",
        "DecOperators.mass_solve": "forms.calculus",
        "DecOperators.apply_d": "forms.calculus",
        "DecOperators.apply_codifferential": "forms.calculus",
        "DecOperators.codifferential": "forms.calculus",
        "DecOperators.inner": "forms.calculus",
        "DecOperators.norm": "forms.calculus",
        "DecOperators.restrict": "forms.calculus",
        "DecOperators.extend": "forms.calculus",
        "DecOperators.kept_pos": "forms.calculus",
        "DecOperators.local_mass": "forms.calculus",
        "DecOperators.component_blocks": "forms.calculus",
    },
    "decem.spectral": {
        "assemble_laplacian": "spectral.assemble",
        "eig": "spectral.eig",
        "build_Q_eps": "spectral.q_eps",
        "harmonic_basis_with_distinguished": "spectral.q_eps",
        "ProjectorQ.q0_factors": "spectral.q_eps",
        "ProjectorQ.apply_q0": "spectral.q_eps",
        "ProjectorQ.apply": "spectral.q_eps",
        "ProjectorQ.q0_matrix": "spectral.q_eps",
        "ProjectorQ.matrix": "spectral.q_eps",
        "ProjectorQ.pairings": "spectral.q_eps",
        "SpectralDecomposition.coefficients": "spectral.functions",
        "SpectralDecomposition.apply_function": "spectral.functions",
        "SpectralDecomposition.funcmat": "spectral.functions",
        "SpectralDecomposition.kernel_projector": "spectral.functions",
        "SpectralDecomposition.project_out_kernel": "spectral.functions",
        "SpectralDecomposition.rotate_kernel_basis": "spectral.functions",
        "kernel_projector": "spectral.functions",
        "inverse_sqrt_quadrature": "spectral.functions",
    },
    "decem.topology": {
        "integer_rank": "topology.rank",
        "relative_cohomology_dims": "topology.rank",
        "check_harmonic_match": "topology.rank",
        "expected_dims": "topology.rank",
    },
    "decem.hodge": {
        "capacity_and_psiL": "hodge.capacity",
        "dirichlet_potential": "hodge.capacity",
        "helmholtz": "hodge.helmholtz",
        "HelmholtzSolver.__init__": "hodge.helmholtz",
        "HelmholtzSolver.split": "hodge.helmholtz",
        "HelmholtzSplit.recomposition_error": "hodge.helmholtz",
        "harmonic_basis": "hodge.helmholtz",
        "sector_split": "hodge.helmholtz",
        "threshold_integral": "hodge.helmholtz",
    },
    "decem.maxwell": {
        "evolve": "maxwell.evolve",
        "potential_evolve": "maxwell.evolve",
        "leapfrog_oracle": "maxwell.evolve",
        "SpectralPropagator.coeffs": "maxwell.evolve",
        "SpectralPropagator.synth": "maxwell.evolve",
        "SpectralPropagator.homogeneous": "maxwell.evolve",
        "SpectralPropagator.duhamel": "maxwell.evolve",
        "constraint_residuals": "maxwell.check",
        "classical_energy": "maxwell.check",
        "CurrentSource.continuity_residual": "maxwell.check",
        "PotentialTrajectory.gauge_residual": "maxwell.check",
    },
    "decem.qft": {
        "FieldCalculus.propagate_G": "qft.kappa",
        "FieldCalculus.kappa": "qft.kappa",
        "FieldCalculus.kappa_data": "qft.kappa",
        "FieldCalculus.__init__": "qft.pairing",
        "FieldCalculus.codifferential_form": "qft.pairing",
        "FieldCalculus.d_form": "qft.pairing",
        "FieldCalculus.box_form": "qft.pairing",
        "FieldCalculus.pairing_G": "qft.pairing",
        "FieldCalculus.pairing_G_data": "qft.pairing",
        "FieldCalculus.GZ": "qft.pairing",
        "FieldCalculus.GZ_data": "qft.pairing",
        "FieldCalculus.krein_product": "qft.pairing",
        "FieldCalculus.omega2_F": "qft.pairing",
        "FieldCalculus.wick_npoint": "qft.pairing",
        "FieldCalculus.zero_mode_expectation": "qft.pairing",
    },
    "decem.geometries": {
        "canned_scenario": "mesh.build",
        "box_complex": "mesh.build",
        "box2d_complex": "mesh.build",
        "ball_shell_complex": "mesh.build",
        "qft_box_scenario": "mesh.build",
        "stress_box_scenario": "mesh.build",
        "empty_box_scenario": "mesh.build",
    },
    "decem.stress": {
        "build_side": "stress.sides",
        "ScenarioStress.build": "stress.sides",
        "operator_difference": "stress.difference",
        "restrict_reference": "stress.difference",
        "quadrature_agreement": "stress.difference",
        "cell_traces": "stress.traces",
        "local_energy_density": "stress.traces",
        "maxwell_tensor": "stress.traces",
        "divergence_residual": "stress.traces",
        "t0k_check": "stress.t0k",
        "resolvent_difference_decay": "stress.decay",
        "interior_window": "stress.decay",
        "loglog_slope": "stress.decay",
    },
}

ROOT = "cli.self"  # the operation itself, outside every layer span
TIME_GROUPS = sorted({g for table in LAYERS.values() for g in table.values()} - {"spectral.eig"}
                     | {"spectral.eig_sparse", "spectral.eig_dense", ROOT})
COUNTED = {"SimplicialComplex.from_top_cells", "DecOperators.__init__", "integer_rank", "eig",
           "HelmholtzSolver.split", "FieldCalculus.kappa_data"}
COUNTERS = (
    "mesh.calls", "mesh.simplices", "forms.nnz", "forms.calculus_calls", "topology.rank_nnz",
    "spectral.eig_sparse_calls", "spectral.eig_dense_calls", "spectral.eig_dense_max_n",
    "hodge.helmholtz_calls", "qft.kappa_calls",
)


def _eig_group(args, kwargs) -> str:
    count = kwargs.get("count", args[1] if len(args) > 1 else "all")
    return "spectral.eig_dense" if count == "all" else "spectral.eig_sparse"


class Tracer:
    """Span recorder for one process; spans stay in memory until `report`."""

    def __init__(self):
        self.spans: list[tuple] = []  # (span id, parent id, group, name, start, end)
        self.self_s: dict[str, float] = {g: 0.0 for g in TIME_GROUPS}
        self.counts: dict[str, int] = {c: 0 for c in COUNTERS}
        self.missing: list[str] = []
        self._stack: list[list] = []  # [span id, group, start, time in nested spans]
        self._originals: dict[str, object] = {}

    # -- spans ---------------------------------------------------------------------

    def call(self, group: str, name: str, fn, args, kwargs):
        if self._stack and self._stack[-1][1] == group:
            return fn(*args, **kwargs)
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1][0] if self._stack else -1
        frame = [span_id, group, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - frame[2]
            self.self_s[group] += dur - frame[3]
            if self._stack:
                self._stack[-1][3] += dur
            self.spans[span_id] = (span_id, parent, group, name, frame[2], end)
            if group.startswith("mesh."):
                self.counts["mesh.calls"] += 1
            elif group == "forms.calculus":
                self.counts["forms.calculus_calls"] += 1

    def root(self, fn, *args, **kwargs):
        """Run the whole operation under the root span."""
        return self.call(ROOT, ROOT, fn, args, kwargs)

    # -- counters on every call ------------------------------------------------------

    def _count(self, name: str, args, kwargs, result) -> None:
        c = self.counts
        if name == "SimplicialComplex.from_top_cells":
            c["mesh.simplices"] += sum(len(s) for s in result.simplices.values())
        elif name == "DecOperators.__init__":
            ops = args[0]
            d, mass = self._originals["DecOperators.d"], self._originals["DecOperators.mass"]
            dim = ops.complex.dim
            c["forms.nnz"] += sum(d(ops, p).nnz for p in range(dim))
            c["forms.nnz"] += sum(mass(ops, p).nnz for p in range(dim + 1))
        elif name == "integer_rank":
            c["topology.rank_nnz"] += int(args[0].nnz)
        elif name == "eig" and _eig_group(args, kwargs) == "spectral.eig_sparse":
            c["spectral.eig_sparse_calls"] += 1
        elif name == "eig":
            c["spectral.eig_dense_calls"] += 1
            c["spectral.eig_dense_max_n"] = max(c["spectral.eig_dense_max_n"], int(args[0].n))
        elif name == "HelmholtzSolver.split":
            c["hodge.helmholtz_calls"] += 1
        elif name == "FieldCalculus.kappa_data":
            c["qft.kappa_calls"] += 1

    # -- installation --------------------------------------------------------------

    def _wrap(self, name: str, group: str, fn):
        counted = name in COUNTED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            g = _eig_group(args, kwargs) if group == "spectral.eig" else group
            result = self.call(g, name, fn, args, kwargs)
            if counted:
                self._count(name, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if any(m in sys.modules for m in ("decem.cli", "decem.stress", "decem.hodge")):
            raise RuntimeError("install the tracer before decem's importers are imported")
        for module_name, table in LAYERS.items():
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                self.missing.append(module_name)
                continue
            for qualname, group in table.items():
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                raw = vars(owner).get(attr) if owner is not None else None
                if raw is None:
                    self.missing.append(f"{module_name}.{qualname}")
                    continue
                if isinstance(raw, classmethod):
                    fn = raw.__func__
                    self._originals[qualname] = fn
                    setattr(owner, attr, classmethod(self._wrap(qualname, group, fn)))
                else:
                    self._originals[qualname] = raw
                    setattr(owner, attr, self._wrap(qualname, group, raw))

    # -- results ---------------------------------------------------------------------

    def report(self) -> dict:
        metrics = {f"{g}_s": v for g, v in self.self_s.items()}
        metrics.update(self.counts)
        metrics["trace.spans"] = len(self.spans)
        return metrics
