"""Scenario runner: config in, deterministic artifact files out.

A run reads one YAML config: the mesh and its obstacle regions (``geometry``), eps
and mu per region (``material``) and the run parameters (``params``).  ``CONFIG``,
one row per key with its kind and default, is the config's one schema; its walker
checks a config once, in ``run_config``, after the CLI options are merged over it.

Exit codes: 0 all assertions passed, 1 an assertion failed, 2 bad input: a
``ConfigError`` or ``MeshError``, printed as ``config error: <path>: <reason>``.
Any other exception is a fault of the program and exits 1 with its traceback.
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
REQUIRED, DERIVED = "required", "derived"  # no constant default: given, or computed by the run


class ConfigError(Exception):
    pass


class _UniqueKeyLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` that rejects a mapping giving one key twice, which
    ``yaml.safe_load`` resolves silently to the last value."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _value in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue  # merged keys may be overridden
            key = self.construct_object(key_node)
            try:
                repeated = key in seen
            except TypeError:
                continue  # an unhashable key: the base loader reports it
            if repeated:
                raise ConfigError(f"{self.name}, line {key_node.start_mark.line + 1}: "
                                  f"key {key!r} is given twice")
            seen.add(key)
        return super().construct_mapping(node, deep)


def load_config(path: str):
    """The YAML document at ``path``, parsed but not checked (``run_config`` checks it);
    a mapping that repeats a key is a ``ConfigError``."""
    try:
        with open(path) as fh:
            return yaml.load(fh, _UniqueKeyLoader)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"{path}: not a readable YAML document: {exc}") from exc


def validate_config(cfg) -> dict:
    """``cfg`` checked against ``CONFIG``, as a new dict with the constant defaults
    filled in (none in ``geometry``); ``cfg`` itself is left as it is."""
    return CONFIG(cfg, "")


# -- the kinds of the config table: each checks a value and returns what a run reads --


def _check(ok: bool, path: str, reason: str, val):
    """``val`` if ``ok``; otherwise a config error naming ``path`` and the reason."""
    if not ok:
        raise ConfigError(f"{path}: {reason}, got {val!r}")
    return val


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def integer(least: int, what: str = ""):
    """An integer >= ``least``; ``what`` names it in the message (the key by default)."""
    return lambda v, path: _check(
        isinstance(v, int) and not isinstance(v, bool) and v >= least, path,
        f"{what or path.rsplit('/', 1)[-1]} must be an integer >= {least}", v,
    )


def positive(what: str = ""):
    """A positive finite number; ``what`` names it in the message."""

    def check(v, path):
        _check(_number(v), path, f"{what}must be a number", v)
        return _check(0 < v < float("inf"), path, f"{what}must be positive and finite", v)

    return check


def choice(choices):
    """One of ``choices``, of the same type (so ``true`` is no version 1)."""
    return lambda v, path: _check(any(type(v) is type(c) and v == c for c in choices), path,
                                  f"must be one of {sorted(choices)}", v)


POSITIVE, TOL = positive(), positive("tolerance ")
BOOL = lambda v, path: _check(isinstance(v, bool), path, "must be true or false", v)
STRING = lambda v, path: _check(isinstance(v, str), path, "must be a string", v)
TAGS = lambda v, path: list(_check(
    isinstance(v, list) and all(isinstance(t, str) for t in v), path,
    "must be a list of region tags", v))
VEC3 = lambda v, path: list(_check(
    isinstance(v, (list, tuple)) and len(v) == 3
    and all(_number(c) and abs(c) < float("inf") for c in v), path, "must be a finite 3-vector", v))


class Table:
    """A mapping whose ``rows`` give each key's (kind, default), and the walker.

    It checks each given value by its kind, rejects unknown keys and missing REQUIRED
    ones, fills in the constant defaults (if ``fill``), runs ``rule(out, path)`` and
    returns the new dict.  A row "*" takes any key; a row "*<suffix>" only checks the
    value of an unnamed key with that suffix.  A string stands for {shorthand: it}.
    """

    def __init__(self, rows, rule=None, shorthand=None, fill=True):
        self.rows = {k: row for k, row in rows.items() if k[0] != "*"}
        self.patterns = {k[1:]: kind for k, (kind, _) in rows.items() if k[0] == "*"}
        self.rule, self.shorthand, self.fill = rule, shorthand, fill

    def __call__(self, val, path):
        if self.shorthand and isinstance(val, str):
            val = {self.shorthand: val}
        alt = f"a {self.shorthand} name or " if self.shorthand else ""
        _check(isinstance(val, dict), path or "/", f"must be {alt}a mapping", val)
        out = {}
        for key, v in val.items():
            kind = self.rows[key][0] if key in self.rows else next(
                (k for sfx, k in self.patterns.items() if str(key).endswith(sfx)), None)
            if kind:
                out[key] = kind(v, f"{path}/{key}")
        unknown = sorted(str(k) for k in val if k not in self.rows)
        if unknown and "" not in self.patterns:
            raise ConfigError(f"{path}/{unknown[0]}: unknown key; known are {sorted(self.rows)}")
        for key, (kind, default) in self.rows.items():
            if key not in out and default == REQUIRED:
                raise ConfigError(f"{path}/{key}: missing config key")
            if key not in out and self.fill and default not in (None, DERIVED):
                out[key] = kind(default, f"{path}/{key}")
        if self.rule:
            self.rule(out, path)
        return out


def _one_source(geo: dict, path: str) -> None:
    """Exactly one of canned | mesh; format and obstacle_tags only with a mesh."""
    given = [key for key in ("canned", "mesh") if key in geo]
    _check(len(given) == 1, path, "needs exactly one of 'canned' or 'mesh'", given)
    for key in ("format", "obstacle_tags"):
        _check(key not in geo or "mesh" in geo, f"{path}/{key}", "needs a mesh", geo.get(key))


def _ordered_radii(qp: dict, path: str = "/params/q_eps") -> None:
    """A config error unless Q_eps's cutoff falls from 1 at r_plateau to 0 at r_zero."""
    if "r_plateau" in qp and "r_zero" in qp:
        _check(qp["r_zero"] > qp["r_plateau"], f"{path}/r_zero",
               f"must exceed r_plateau = {qp['r_plateau']!r}", qp["r_zero"])


def _check_regions(tags, mesh, path: str) -> None:
    """A config error unless every tag names a region of ``mesh``."""
    known = sorted(set(mesh.regions))
    for tag in (t for t in tags if t not in known):
        raise ConfigError(f"{path}: {tag!r} names no region of the mesh; its regions are {known}")


def build_scenario(cfg: dict):
    """The validated config's reference mesh with its obstacle carved (none when
    ``empty``): a canned geometry, or a mesh file and its ``obstacle_tags``."""
    geo = cfg["geometry"]
    if "canned" in geo and not cfg["empty"]:
        return geometries.canned_scenario(geo["canned"], cfg["res"])
    if "canned" in geo:
        return carve_obstacle(geometries.CANNED[geo["canned"]].build(cfg["res"])[0], ())
    fmt = geo.get("format", GEOMETRY.rows["format"][1])
    try:
        if fmt == "decmesh":
            with open(geo["mesh"]) as fh:
                ref = load_complex(fh)
        else:
            ref = load_complex(geo["mesh"], fmt)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"/geometry/mesh: cannot read {geo['mesh']}: {exc}") from exc
    tags = geo.get("obstacle_tags", GEOMETRY.rows["obstacle_tags"][1])
    _check_regions(tags, ref, "/geometry/obstacle_tags")
    return carve_obstacle(ref, () if cfg["empty"] else tags)


def material_from_config(cfg: dict) -> MaterialField:
    """eps and mu per region tag from ``material: {tag: {eps: .., mu: ..}}``, checked by
    the table's material row."""
    mat = CONFIG.rows["material"][0](cfg["material"], "/material")
    return MaterialField(eps={t: float(m["eps"]) for t, m in mat.items()},
                         mu={t: float(m["mu"]) for t, m in mat.items()})


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
    kernel_dims = {p: _low_modes(assemble_laplacian(ops, p)).kernel_dim for p in (1, 2)}
    flags = check_harmonic_match(report, kernel_dims)
    rows = []
    name = cfg["geometry"].get("canned")
    if name and not cfg["empty"]:
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
    rows, out = [], {}
    if scenario.has_obstacle and scenario.carved.dim == 3:
        cap = hb.capacity
        out["capacity"] = cap
        if "capacity_expected" in params:
            tol = params["capacity_tol"]
            rel = abs(cap - params["capacity_expected"]) / params["capacity_expected"]
            rows.append(_assert_row("capacity", rel <= tol, rel, tol))
    out["harmonic_dim"] = hb.L
    rng = np.random.default_rng(cfg["seed"])
    worst_rec, worst_orth = 0.0, 0.0
    M = ops.mass(1)
    for _ in range(params["n_random"]):
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
    tol = params["helmholtz_tol"]
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
    times = np.linspace(0.0, t_end, params["n_times"])
    calc = LanczosCalculus(op, low.kernel_basis())
    states = evolve(calc, ops, MaxwellState(0.0, E0, B0), None, times)
    e0 = classical_energy(ops, MaxwellState(0.0, E0, B0))
    drift = max(abs(classical_energy(ops, s) - e0) / e0 for s in states)
    worst = max(max(constraint_residuals(ops, s).values()) for s in states)
    tol = params["residual_tol"]
    rows = [
        _assert_row("energy_drift", drift <= tol, drift, tol),
        _assert_row("constraint_residuals", worst <= tol, worst, tol),
    ]
    series = [{"t": float(s.t), "energy": classical_energy(ops, s)} for s in states]
    return {"lambda_min": lam_min, "series": series, "assertions": rows}


def pipeline_qft(cfg, scenario, material):
    from .hodge import harmonic_basis
    from .qft import FieldCalculus, FormTerm, TestForm
    from .spectral import build_Q_eps
    from .timeprofiles import TimeProfile

    params = cfg["params"]
    ops = DecOperators(scenario.carved, material)
    # the cutoff's defaults scale with the mesh; resolve and check them before any eigensolve
    qp = params["q_eps"]
    cplx = scenario.carved
    nodes = cplx.simplices[0][:, 0]
    center = np.asarray(qp.get("center", cplx.vertices[nodes].mean(axis=0)))
    rmax = float(np.linalg.norm(cplx.vertices[nodes] - center, axis=1).max())
    r_plateau = float(qp.get("r_plateau", 0.55 * rmax))
    r_zero = float(qp.get("r_zero", 0.8 * rmax))
    _ordered_radii({"r_plateau": r_plateau, "r_zero": r_zero})
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
            harmonic_basis(low1, ops), ops, eps=float(qp["eps"]), center=center,
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
        return TestForm(2, [FormTerm(g1, "e", rng.standard_normal(ops.n(1))),
                            FormTerm(g2, "b", rng.standard_normal(ops.n(2)))])

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
    tol = params["identity_tol"]
    rows = [
        _assert_row("antisymmetric_part_vs_G", anti <= tol, anti, tol),
        _assert_row("diagonal_positive", diag.real >= -1e-10, diag.real, -1e-10),
        _assert_row("wick4", wick_err <= 1e-10, wick_err, 1e-10),
        _assert_row("time_translation", shift <= tol, shift, tol),
    ]
    return {"omega2_diag": _jsonable(diag.real), "assertions": rows}


def pipeline_stress(cfg, scenario, material):
    from .stress import (ScenarioStress, local_energy_density, loglog_slope,
                         resolvent_difference_decay, t0k_check)

    params = cfg["params"]
    st = ScenarioStress.build(scenario, material)
    rep = local_energy_density(st)
    rows = []
    if not scenario.has_obstacle and material.is_vacuum():
        null = float(np.abs(rep.t00).max())
        rows.append(_assert_row("empty_nullity", null <= 1e-10, null, 1e-10))
    else:
        err, tol = rep.trace_identity_error(), params["trace_tol"]
        rows.append(_assert_row("trace_identity", err <= tol, err, tol))
        r = t0k_check(st)
        tol = params["t0k_tol"]
        rows.append(_assert_row("t0k", r <= tol, r, tol))
        if params["decay"]:
            grid = np.geomspace(
                params["lam_min"], 3 * st.sigma.dec.lam[-1], params["n_lam"]
            )
            table = resolvent_difference_decay(st, grid)
            slope = loglog_slope(table)
            rows.append(_assert_row("decay_slope", slope <= -3.0, slope, -3.0))
    return {"total_energy": rep.total_energy, "trace_d1": rep.trace_d1,
            "trace_d2": rep.trace_d2, "assertions": rows}


PIPELINES = {
    "topology": pipeline_topology,
    "hodge": pipeline_hodge,
    "maxwell": pipeline_maxwell,
    "qft": pipeline_qft,
    "stress": pipeline_stress,
}


GEOMETRY = Table({
    "canned": (choice(geometries.CANNED), None),
    "mesh": (STRING, None),  # a decmesh file, or tetgen's .node/.ele path prefix
    "format": (choice(("decmesh", "tetgen")), "decmesh"),
    "obstacle_tags": (TAGS, []),
}, rule=_one_source, shorthand="canned", fill=False)

# one row per key: (kind, default)
CONFIG = Table({
    "version": (choice((CONFIG_VERSION,)), CONFIG_VERSION),
    "pipeline": (choice(PIPELINES), REQUIRED),
    "geometry": (GEOMETRY, REQUIRED),
    "res": (integer(1, "resolution"), 1),
    "seed": (integer(0), 0),
    "empty": (BOOL, False),  # carve nothing
    "material": (Table({"*": (Table({"eps": (POSITIVE, 1.0), "mu": (POSITIVE, 1.0)}), None)}), {}),
    "params": (Table({
        # hodge
        "capacity_expected": (POSITIVE, None),
        "capacity_tol": (TOL, 0.05),
        "n_random": (integer(1), 10),
        "helmholtz_tol": (TOL, 1e-10),
        # maxwell; t_end is 10 / lambda_min
        "t_end": (POSITIVE, DERIVED),
        "n_times": (integer(2), 7),
        "residual_tol": (TOL, 1e-8),
        # qft; Q_eps's center is the vertex centroid, its radii 0.55 and 0.8 of the
        # largest vertex distance from it
        "q_eps": (Table({
            "eps": (POSITIVE, 1.0),
            "center": (VEC3, DERIVED),
            "r_plateau": (POSITIVE, DERIVED),
            "r_zero": (POSITIVE, DERIVED),
        }, rule=_ordered_radii), {}),
        "identity_tol": (TOL, 1e-8),
        # stress
        "trace_tol": (TOL, 1e-10),
        "t0k_tol": (TOL, 1e-8),
        "decay": (BOOL, True),
        "lam_min": (POSITIVE, 1.0),
        "n_lam": (integer(2), 10),
        "*_tol": (TOL, None),
    }), {}),
    "output_dir": (STRING, None),
})


def run_config(cfg: dict) -> tuple[int, dict]:
    cfg = validate_config(cfg)
    scenario = build_scenario(cfg)
    _check_regions(cfg["material"], scenario.reference, "/material")
    result = PIPELINES[cfg["pipeline"]](cfg, scenario, material_from_config(cfg))
    rows = result.get("assertions", [])
    ok = all(r["ok"] for r in rows)
    recorded = ("version", "seed", "res", "geometry", "pipeline", "empty")
    summary = {"config": {key: cfg[key] for key in recorded}, "result": result, "passed": ok}
    outdir = os.environ.get("DECEM_OUTPUT_DIR", cfg.get("output_dir"))
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "summary.json"), "w") as fh:
            json.dump(summary, fh, sort_keys=True, indent=1)
            fh.write("\n")
    return (0 if ok else 1), summary


# -- click wiring -------------------------------------------------------------------


class _Main(click.Group):
    def invoke(self, ctx):
        """Bad input exits 2 from every command, naming its path."""
        try:
            return super().invoke(ctx)
        except (ConfigError, MeshError) as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(2)


@click.group(cls=_Main)
def main():
    """Discrete exterior calculus engine for Maxwell fields on obstacle geometries."""


def _merged_config(config: str | None, **options):
    """The config file's mapping (an empty one without --config) with each given CLI
    option over it; the walker names a file that holds no mapping."""
    cfg = load_config(config) if config else {}
    given = {k: v for k, v in options.items() if v is not None}
    return {**cfg, **given} if isinstance(cfg, dict) else cfg


def _canned_scenario(geometry: str, res: int):
    """dump-mesh's and export-matrices' scenario, their options checked by the table."""
    return geometries.canned_scenario(
        GEOMETRY.rows["canned"][0](geometry, "--geometry"),
        CONFIG.rows["res"][0](res, "--res"),
    )


@main.command("run")
@click.argument("pipeline", type=click.Choice(sorted(PIPELINES)))
@click.option("--geometry", help="canned geometry id, e.g. balls:2 (over the --config geometry)")
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--res", type=int, default=None, help="resolution multiplier")
@click.option("--seed", type=int, default=None)
@click.option("--empty", is_flag=True, help="disable the obstacle (carve nothing)")
@click.option("--output", "output_dir", type=click.Path(), default=None)
def run_cmd(pipeline, geometry, config_path, res, seed, empty, output_dir):
    """Run one named pipeline and write summary.json."""
    code, summary = run_config(_merged_config(
        config_path, pipeline=pipeline, geometry=geometry, res=res, seed=seed,
        empty=empty or None, output_dir=output_dir,
    ))
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
    sc = _canned_scenario(geometry, res)
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
    sc = _canned_scenario(geometry, res)
    if not 0 <= degree <= sc.carved.dim:
        raise ConfigError(f"--degree: must be in 0..{sc.carved.dim}, got {degree}")
    ops = DecOperators(sc.carved)
    os.makedirs(out, exist_ok=True)
    mats = [(f"d{degree}", ops.d(degree))] if degree < sc.carved.dim else []
    for name, mat in mats + [(f"mass{degree}", ops.mass(degree))]:
        path = os.path.join(out, name + ".txt")
        with open(path, "w") as fh:
            write_sparse_triplets(mat, fh)
        click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
