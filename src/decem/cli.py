"""Scenario runner: config in, deterministic artifact files out.

Exit codes: 0 all assertions passed, 1 an assertion failed, 2 bad config.
The summary JSON is byte-stable for a fixed config and seed: keys are sorted,
floats use repr round-tripping, and no timestamps are embedded.
"""

from __future__ import annotations

import json
import os
import sys

import click
import numpy as np
import yaml

from . import geometries
from .forms import DecOperators, MaterialField
from .io import write_sparse_triplets
from .mesh import MeshError, carve_obstacle, load_complex
from .spectral import LanczosCalculus, _spanning_forest, assemble_laplacian, eig

CONFIG_VERSION = 1
# integer run parameters and the least value each may take
PARAM_LEAST = {"n_random": 1, "n_times": 2, "n_lam": 2}
# every key a pipeline reads from params (hodge, maxwell, qft, stress)
PARAM_KEYS = {"capacity_expected", "capacity_tol", "n_random", "helmholtz_tol", "t_end",
              "n_times", "residual_tol", "q_eps", "identity_tol", "trace_tol", "t0k_tol",
              "decay", "lam_min", "n_lam"}


class ConfigError(Exception):
    pass


def _need(cfg: dict, key: str, path: str):
    if key not in cfg:
        raise ConfigError(f"missing config key: {path}/{key}")
    return cfg[key]


def load_config(path: str) -> dict:
    with open(path) as fh:
        cfg = yaml.safe_load(fh)
    return validate_config(cfg)


def validate_config(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("/: config must be a mapping")
    if cfg.get("version", CONFIG_VERSION) != CONFIG_VERSION:
        raise ConfigError(f"/version: unsupported config version {cfg.get('version')!r}")
    cfg.setdefault("version", CONFIG_VERSION)
    _check_int(cfg.setdefault("seed", 0), 0, "/seed", "seed")
    _check_res(cfg.setdefault("res", 1), "/res")
    cfg.setdefault("material", {})
    params = cfg.setdefault("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"/params: must be a mapping, got {params!r}")
    geo = _need(cfg, "geometry", "")
    if isinstance(geo, str):
        cfg["geometry"] = {"canned": geo}
    elif not isinstance(geo, dict):
        raise ConfigError(f"/geometry: must be a canned name or a mapping, got {geo!r}")
    for key, val in params.items():
        if key.endswith("_tol"):
            _check_positive(val, f"/params/{key}", "tolerance")
        if key in PARAM_LEAST:
            _check_int(val, PARAM_LEAST[key], f"/params/{key}", key)
    for key in ("t_end", "lam_min", "capacity_expected"):
        if key in params:
            _check_positive(params[key], f"/params/{key}")
    if "decay" in params and not isinstance(params["decay"], bool):
        raise ConfigError(f"/params/decay: must be true or false, got {params['decay']!r}")
    if "q_eps" in params:
        _check_q_eps(params["q_eps"])
    _check_known(params, PARAM_KEYS, "/params")
    return cfg


def _check_known(table: dict, known: set, path: str) -> None:
    """A config error naming the first key of ``table`` (sorted) that no pipeline reads."""
    unknown = sorted(map(str, set(table) - known))
    if unknown:
        raise ConfigError(f"{path}/{unknown[0]}: unknown key; known are {sorted(known)}")


def _check_q_eps(qp) -> None:
    """Q_eps's cutoff parameters, each checked where given.

    eps and the radii are positive finite numbers with r_zero > r_plateau, center
    is a finite 3-vector, and no other key is allowed.
    """
    if not isinstance(qp, dict):
        raise ConfigError(f"/params/q_eps: must be a mapping, got {qp!r}")
    for key in ("eps", "r_plateau", "r_zero"):
        if key in qp:
            _check_positive(qp[key], f"/params/q_eps/{key}")
    if "r_plateau" in qp and "r_zero" in qp:
        _check_radii(qp["r_plateau"], qp["r_zero"])
    center = qp.get("center")
    if "center" in qp and not (
        isinstance(center, (list, tuple))
        and len(center) == 3
        and all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in center)
        and np.all(np.isfinite(center))
    ):
        raise ConfigError(f"/params/q_eps/center: must be a finite 3-vector, got {center!r}")
    _check_known(qp, {"eps", "r_plateau", "r_zero", "center"}, "/params/q_eps")


def _check_radii(r_plateau: float, r_zero: float) -> None:
    """A config error unless the cutoff falls from 1 at r_plateau to 0 at a larger r_zero."""
    if not r_zero > r_plateau:
        raise ConfigError(
            f"/params/q_eps/r_zero: must exceed r_plateau = {r_plateau!r}, got {r_zero!r}"
        )


def _check_int(val, least: int, path: str, name: str) -> int:
    """``val`` if it is an integer >= ``least``; otherwise a config error naming ``path``."""
    if isinstance(val, bool) or not isinstance(val, int) or val < least:
        raise ConfigError(f"{path}: {name} must be an integer >= {least}, got {val!r}")
    return val


def _check_res(res, path: str) -> int:
    """``res`` if it is a resolution multiplier (an integer >= 1); otherwise a config error."""
    return _check_int(res, 1, path, "resolution")


def _check_positive(val, path: str, name: str = "") -> float:
    """``val`` as a float if it is a positive finite number; otherwise a config error
    naming ``path`` (and what the value is, when ``name`` is given)."""
    what = f"{name} " if name else ""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{path}: {what}must be a number, got {val!r}")
    if not (np.isfinite(val) and val > 0):
        raise ConfigError(f"{path}: {what}must be positive and finite, got {val!r}")
    return float(val)


def _canned_name(name: str) -> str:
    """``name`` if it names a canned geometry; otherwise a config error."""
    if name not in geometries.CANNED:
        raise ConfigError(f"/geometry: unknown canned geometry {name!r}; see `decem list`")
    return name


def build_scenario(cfg: dict):
    geo = cfg["geometry"]
    res = int(cfg.get("res", 1))
    if "canned" in geo:
        name = _canned_name(geo["canned"])
        if cfg.get("empty"):
            ref, _tags = geometries.CANNED[name].build(res)
            return carve_obstacle(ref, set())
        return geometries.canned_scenario(name, res)
    if "mesh" in geo:
        tags = geo.get("obstacle_tags", [])
        if not (isinstance(tags, list) and all(isinstance(t, str) for t in tags)):
            raise ConfigError(
                f"/geometry/obstacle_tags: must be a list of region tags, got {tags!r}"
            )
        fmt = geo.get("format", "decmesh")
        try:
            if fmt == "decmesh":
                with open(geo["mesh"]) as fh:
                    cplx = load_complex(fh)
            else:
                cplx = load_complex(geo["mesh"], fmt)
        except FileNotFoundError as exc:
            raise ConfigError(f"/geometry/mesh: no such mesh file: {exc.filename}") from exc
        regions = set(cplx.regions)
        for tag in tags:
            if tag not in regions:
                raise ConfigError(
                    f"/geometry/obstacle_tags: {tag!r} names no region of the mesh; "
                    f"its regions are {sorted(regions)}"
                )
        return carve_obstacle(cplx, set(tags))
    raise ConfigError("/geometry: needs 'canned' or 'mesh'")


def material_from_config(cfg: dict) -> MaterialField:
    """eps and mu per region tag from ``material: {tag: {eps: .., mu: ..}}``."""
    mat = cfg.get("material", {}) or {}
    if not isinstance(mat, dict):
        raise ConfigError("/material: must be a mapping of region tags")
    eps, mu = {}, {}
    for tag, entry in mat.items():
        if not isinstance(entry, dict):
            raise ConfigError(f"/material/{tag}: must be a mapping with eps and/or mu")
        for key, out in (("eps", eps), ("mu", mu)):
            out[tag] = _check_positive(entry.get(key, 1.0), f"/material/{tag}/{key}")
    return MaterialField(eps=eps, mu=mu)


# -- pipelines -------------------------------------------------------------------


def _assert_row(name: str, ok: bool, value, tol=None) -> dict:
    return {"name": name, "ok": bool(ok), "value": _jsonable(value), "tol": tol}


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    return v


def pipeline_topology(cfg, scenario, material):
    from .topology import check_harmonic_match, expected_dims, relative_cohomology_dims

    ops = DecOperators(scenario.carved, material)
    report = relative_cohomology_dims(ops)
    kernel_dims = {}
    for p in (1, 2):
        kernel_dims[p] = _low_modes(assemble_laplacian(ops, p)).kernel_dim
    flags = check_harmonic_match(report, kernel_dims)
    rows = []
    name = cfg["geometry"].get("canned")
    if name and not cfg.get("empty"):
        report.expected = expected_dims(name)
        for p, want in sorted(report.expected.items()):
            rows.append(_assert_row(f"dim_H{p}", report.dims[p] == want, report.dims[p]))
    for p, ok in sorted(flags.items()):
        rows.append(_assert_row(f"harmonic_match_p{p}", ok, kernel_dims[p]))
    return {"dims": {str(k): v for k, v in report.dims.items()}, "assertions": rows}


def pipeline_hodge(cfg, scenario, material):
    from .hodge import HelmholtzSolver, harmonic_basis

    params = cfg["params"]
    ops = DecOperators(scenario.carved, material)
    op = assemble_laplacian(ops, 1)
    # _low_modes's eig, and the shifted factor it makes, which Delta^+ reuses
    low, factor = eig(op, count=min(10, op.n - 2), return_factor=True)
    hb = harmonic_basis(low, ops)
    solver = HelmholtzSolver(op, hb, factor)
    rows = []
    out = {}
    if scenario.has_obstacle and scenario.carved.dim == 3:
        cap = hb.capacity
        out["capacity"] = cap
        if "capacity_expected" in params:
            tol = params.get("capacity_tol", 0.05)
            rel = abs(cap - params["capacity_expected"]) / params["capacity_expected"]
            rows.append(_assert_row("capacity", rel <= tol, rel, tol))
    out["harmonic_dim"] = hb.L
    rng = np.random.default_rng(cfg["seed"])
    n_checks = params.get("n_random", 10)
    worst_rec, worst_orth = 0.0, 0.0
    M = ops.mass(1)
    for _ in range(n_checks):
        phi = rng.standard_normal(ops.n(1))
        hs = solver.split(phi)
        worst_rec = max(worst_rec, hs.recomposition_error(ops, 1))
        pairs = (
            abs(hs.harmonic @ (M @ hs.exact)),
            abs(hs.harmonic @ (M @ hs.coexact)),
            abs(hs.exact @ (M @ hs.coexact)),
        )
        scale = max(ops.inner(1, phi, phi), 1e-300)
        worst_orth = max(worst_orth, max(pairs) / scale)
    tol = params.get("helmholtz_tol", 1e-10)
    rows.append(_assert_row("helmholtz_recomposition", worst_rec <= tol, worst_rec, tol))
    rows.append(_assert_row("helmholtz_orthogonality", worst_orth <= tol, worst_orth, tol))
    out["assertions"] = rows
    return out


def _low_modes(op):
    """The partial eig of a Laplacian for its kernel and lambda_min.
    ``low.kernel_basis()`` rejects a kernel that no eigenvalue lies above."""
    return eig(op, count=min(10, op.n - 2))


def pipeline_maxwell(cfg, scenario, material):
    from .maxwell import MaxwellState, classical_energy, constraint_residuals, evolve

    params = cfg["params"]
    ops = DecOperators(scenario.carved, material)
    op = assemble_laplacian(ops, 1)
    low = _low_modes(op)
    rng = np.random.default_rng(cfg["seed"])
    E0 = ops.apply_codifferential(2, rng.standard_normal(ops.n(2)))
    B0 = ops.d(1) @ rng.standard_normal(ops.n(1))
    lam_min = float(np.sqrt(low.evals[low.kernel_dim]))
    t_end = params.get("t_end", 10.0 / lam_min)
    times = np.linspace(0.0, t_end, params.get("n_times", 7))
    calc = LanczosCalculus(op, low.kernel_basis())
    states = evolve(calc, ops, MaxwellState(0.0, E0, B0), None, times)
    e0 = classical_energy(ops, MaxwellState(0.0, E0, B0))
    drift = max(abs(classical_energy(ops, s) - e0) / e0 for s in states)
    worst = 0.0
    for s in states:
        worst = max(worst, max(constraint_residuals(ops, s).values()))
    tol = params.get("residual_tol", 1e-8)
    rows = [
        _assert_row("energy_drift", drift <= tol, drift, tol),
        _assert_row("constraint_residuals", worst <= tol, worst, tol),
    ]
    series = [
        {"t": float(s.t), "energy": classical_energy(ops, s)} for s in states
    ]
    return {"lambda_min": lam_min, "series": series, "assertions": rows}


def pipeline_qft(cfg, scenario, material):
    from .hodge import harmonic_basis
    from .qft import FieldCalculus, FormTerm, TestForm
    from .spectral import build_Q_eps
    from .timeprofiles import TimeProfile

    params = cfg["params"]
    ops = DecOperators(scenario.carved, material)
    # the cutoff's defaults scale with the mesh; resolve and check them before any eigensolve
    qp = params.get("q_eps", {})
    cplx = scenario.carved
    nodes = cplx.simplices[0][:, 0]
    center = np.asarray(qp.get("center", cplx.vertices[nodes].mean(axis=0)))
    rmax = float(np.linalg.norm(cplx.vertices[nodes] - center, axis=1).max())
    r_plateau = float(qp.get("r_plateau", 0.55 * rmax))
    r_zero = float(qp.get("r_zero", 0.8 * rmax))
    _check_radii(r_plateau, r_zero)
    # the Krein map needs ker Delta_0 = ker d_0 empty: n_0 = rank d_0, with no eigensolve
    kernel0 = ops.n(0) - len(_spanning_forest(ops.d(0))[1])
    if kernel0:
        raise ConfigError(
            f"/geometry: Delta_0 has a kernel of dimension {kernel0} (a vertex component "
            "touches no boundary); qft needs it empty"
        )
    op0, op1 = assemble_laplacian(ops, 0), assemble_laplacian(ops, 1)
    low1 = _low_modes(op1)
    Q = None
    if scenario.has_obstacle and low1.kernel_dim > 0:
        Q = build_Q_eps(
            harmonic_basis(low1, ops), ops, eps=float(qp.get("eps", 1.0)), center=center,
            r_plateau=r_plateau, r_zero=r_zero,
        )
    # each test-form cochain keeps one Krylov basis across the pairings below
    calc0 = LanczosCalculus(op0, np.zeros((ops.n(0), 0)))
    calc1 = LanczosCalculus(op1, low1.kernel_basis())
    fc = FieldCalculus(ops, calc0, calc1, Q=Q)
    rng = np.random.default_rng(cfg["seed"])

    def rand2():
        g1 = TimeProfile.bump(-0.6 + 0.1 * rng.random(), 0.5 + 0.3 * rng.random())
        g2 = TimeProfile.bump(-0.4, 0.7)
        return TestForm(
            2,
            [
                FormTerm(g1, "e", rng.standard_normal(ops.n(1))),
                FormTerm(g2, "b", rng.standard_normal(ops.n(2))),
            ],
        )

    f1, f2 = rand2(), rand2()
    g1 = fc.codifferential_form(f1)
    g2 = fc.codifferential_form(f2)
    w12, w21 = fc.omega2_F(f1, f2), fc.omega2_F(f2, f1)
    G = fc.pairing_G(g1, g2)
    scale = max(abs(w12), 1.0)
    anti = abs((w12 - w21) + 1j * G) / scale
    diag = fc.omega2_F(f1, f1)
    w4 = fc.wick_npoint([f1, f1, f1, f1])
    wick_err = abs(w4 - 3 * diag**2) / max(abs(w4), 1.0)
    shift = abs(fc.omega2_F(f1.shifted(0.31), f2.shifted(0.31)) - w12) / scale
    tol = params.get("identity_tol", 1e-8)
    rows = [
        _assert_row("antisymmetric_part_vs_G", anti <= tol, anti, tol),
        _assert_row("diagonal_positive", diag.real >= -1e-10, diag.real, -1e-10),
        _assert_row("wick4", wick_err <= 1e-10, wick_err, 1e-10),
        _assert_row("time_translation", shift <= tol, shift, tol),
    ]
    return {
        "omega2_diag": _jsonable(diag.real),
        "assertions": rows,
    }


def pipeline_stress(cfg, scenario, material):
    from .stress import (
        ScenarioStress,
        local_energy_density,
        loglog_slope,
        resolvent_difference_decay,
        t0k_check,
    )

    params = cfg["params"]
    st = ScenarioStress.build(scenario, material)
    rep = local_energy_density(st)
    rows = []
    if not scenario.has_obstacle and material.is_vacuum():
        null = float(np.abs(rep.t00).max())
        rows.append(_assert_row("empty_nullity", null <= 1e-10, null, 1e-10))
    else:
        err, tol = rep.trace_identity_error(), params.get("trace_tol", 1e-10)
        rows.append(_assert_row("trace_identity", err <= tol, err, tol))
        r = t0k_check(st)
        tol = params.get("t0k_tol", 1e-8)
        rows.append(_assert_row("t0k", r <= tol, r, tol))
        if params.get("decay", True):
            grid = np.geomspace(
                params.get("lam_min", 1.0), 3 * st.sigma.dec.lam[-1], params.get("n_lam", 10)
            )
            table = resolvent_difference_decay(st, grid)
            slope = loglog_slope(table)
            rows.append(_assert_row("decay_slope", slope <= -3.0, slope, -3.0))
    out = {
        "total_energy": rep.total_energy,
        "trace_d1": rep.trace_d1,
        "trace_d2": rep.trace_d2,
        "assertions": rows,
    }
    return out


PIPELINES = {
    "topology": pipeline_topology,
    "hodge": pipeline_hodge,
    "maxwell": pipeline_maxwell,
    "qft": pipeline_qft,
    "stress": pipeline_stress,
}


def run_config(cfg: dict) -> tuple[int, dict]:
    cfg = validate_config(cfg)
    pipeline = _need(cfg, "pipeline", "")
    if pipeline not in PIPELINES:
        raise ConfigError(f"/pipeline: unknown pipeline {pipeline!r}")
    material = material_from_config(cfg)
    scenario = build_scenario(cfg)
    result = PIPELINES[pipeline](cfg, scenario, material)
    rows = result.get("assertions", [])
    ok = all(r["ok"] for r in rows)
    summary = {
        "config": {
            "version": cfg["version"],
            "seed": cfg["seed"],
            "res": cfg["res"],
            "geometry": cfg["geometry"],
            "pipeline": pipeline,
            "empty": bool(cfg.get("empty", False)),
        },
        "result": result,
        "passed": ok,
    }
    outdir = os.environ.get("DECEM_OUTPUT_DIR", cfg.get("output_dir"))
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "summary.json"), "w") as fh:
            json.dump(summary, fh, sort_keys=True, indent=1)
            fh.write("\n")
    return (0 if ok else 1), summary


# -- click wiring -------------------------------------------------------------------


@click.group()
def main():
    """Discrete exterior calculus engine for Maxwell fields on obstacle geometries."""


def _geometry_option(geometry: str | None, config: str | None, **overrides) -> dict:
    if config:
        cfg = load_config(config)
    elif geometry:
        cfg = {"geometry": {"canned": geometry}}
    else:
        raise ConfigError("either --config or --geometry is required")
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    return cfg


@main.command("run")
@click.argument("pipeline", type=click.Choice(sorted(PIPELINES)))
@click.option("--geometry", help="canned geometry id, e.g. balls:2")
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--res", type=int, default=None, help="resolution multiplier")
@click.option("--seed", type=int, default=None)
@click.option("--empty", is_flag=True, help="disable the obstacle (carve nothing)")
@click.option("--output", "output_dir", type=click.Path(), default=None)
def run_cmd(pipeline, geometry, config_path, res, seed, empty, output_dir):
    """Run one named pipeline and write summary.json."""
    try:
        cfg = _geometry_option(geometry, config_path, res=res, seed=seed,
                               output_dir=output_dir)
        if empty:
            cfg["empty"] = True
        cfg["pipeline"] = pipeline
        code, summary = run_config(cfg)
    except (ConfigError, MeshError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    for row in summary["result"].get("assertions", []):
        status = "PASS" if row["ok"] else "FAIL"
        click.echo(f"[{status}] {row['name']}: {row['value']}")
    click.echo(json.dumps(summary["result"], sort_keys=True, default=str)[:2000])
    sys.exit(code)


@main.command("list")
def list_cmd():
    """List canned scenario geometries."""
    for row in geometries.list_scenarios():
        click.echo(
            f"{row['name']:22s} H1={row['expected_h1']} H2={row['expected_h2']}  {row['description']}"
        )


@main.command("dump-mesh")
@click.option("--geometry", required=True)
@click.option("--res", type=int, default=1)
@click.option("--out", type=click.Path(), default=None)
@click.option("--carved/--reference", default=True)
def dump_mesh_cmd(geometry, res, out, carved):
    """Write a canned mesh in the decmesh text format (plus metadata JSON)."""
    try:
        sc = geometries.canned_scenario(_canned_name(geometry), _check_res(res, "--res"))
    except (ConfigError, MeshError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    cplx = sc.carved if carved else sc.reference
    text = cplx.to_text()
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        click.echo(cplx.metadata_json())
    else:
        click.echo(text)


@main.command("export-matrices")
@click.option("--geometry", required=True)
@click.option("--res", type=int, default=1)
@click.option("--degree", type=int, default=1)
@click.option("--out", type=click.Path(), required=True)
def export_matrices_cmd(geometry, res, degree, out):
    """Export incidence and mass matrices in sparse triplet text format."""
    try:
        sc = geometries.canned_scenario(_canned_name(geometry), _check_res(res, "--res"))
        if not 0 <= degree <= sc.carved.dim:
            raise ConfigError(f"--degree: must be in 0..{sc.carved.dim}, got {degree}")
    except (ConfigError, MeshError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    ops = DecOperators(sc.carved)
    os.makedirs(out, exist_ok=True)
    for name, mat in (
        (f"d{degree}", ops.d(degree) if degree < sc.carved.dim else None),
        (f"mass{degree}", ops.mass(degree)),
    ):
        if mat is None:
            continue
        path = os.path.join(out, name + ".txt")
        with open(path, "w") as fh:
            write_sparse_triplets(mat, fh)
        click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
