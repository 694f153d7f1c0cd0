import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

from decem.cli import main, material_from_config, run_config, validate_config, ConfigError


@pytest.fixture()
def runner():
    return CliRunner()


def test_list_contains_canned(runner):
    res = runner.invoke(main, ["list"])
    assert res.exit_code == 0
    for name in ("balls:1", "hopf_link", "wormhole_obstacle", "solid_torus"):
        assert name in res.output


def test_run_topology_balls2(runner, tmp_path):
    res = runner.invoke(
        main, ["run", "topology", "--geometry", "balls:2", "--output", str(tmp_path)]
    )
    assert res.exit_code == 0, res.output
    assert "[PASS] dim_H1: 2" in res.output
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["result"]["dims"]["1"] == 2


def test_run_topology_cube_obstacle_checks_expected_dims(runner, tmp_path):
    res = runner.invoke(
        main, ["run", "topology", "--geometry", "cube_obstacle", "--output", str(tmp_path)]
    )
    assert res.exit_code == 0, res.output
    assert "[PASS] dim_H1: 1" in res.output
    assert "[PASS] dim_H2: 0" in res.output
    rows = json.loads((tmp_path / "summary.json").read_text())["result"]["assertions"]
    assert {r["name"]: r["ok"] for r in rows if r["name"].startswith("dim_H")} == {
        "dim_H1": True,
        "dim_H2": True,
    }


def test_package_all_names_resolve():
    import decem

    for name in decem.__all__:
        assert hasattr(decem, name), name


def test_run_determinism_byte_identical(runner, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        res = runner.invoke(
            main,
            ["run", "topology", "--geometry", "balls:1", "--seed", "7", "--output", str(out)],
        )
        assert res.exit_code == 0
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def test_unknown_geometry_config_error(runner):
    res = runner.invoke(main, ["run", "topology", "--geometry", "moebius:9"])
    assert res.exit_code == 2


def test_missing_geometry_config_error(runner):
    res = runner.invoke(main, ["run", "topology"])
    assert res.exit_code == 2


def test_validate_config_rejects_bad_tolerance():
    with pytest.raises(ConfigError, match="tolerance"):
        validate_config(
            {"geometry": "balls:1", "pipeline": "hodge", "params": {"some_tol": -1.0}}
        )


def test_validate_config_rejects_bad_version():
    with pytest.raises(ConfigError, match="version"):
        validate_config({"version": 99, "geometry": "balls:1"})


def test_run_config_yaml_roundtrip(tmp_path):
    import yaml

    cfg = {
        "version": 1,
        "seed": 3,
        "geometry": {"canned": "balls:1"},
        "pipeline": "topology",
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    from decem.cli import load_config

    code, summary = run_config(load_config(str(path)))
    assert code == 0 and summary["passed"]
    assert os.path.exists(tmp_path / "out" / "summary.json")


def test_dump_mesh(runner, tmp_path):
    out = tmp_path / "mesh.txt"
    res = runner.invoke(main, ["dump-mesh", "--geometry", "balls:1", "--out", str(out)])
    assert res.exit_code == 0
    from decem.mesh import load_complex

    c = load_complex(out.read_text())
    assert c.dim == 3
    meta = json.loads(res.output)
    assert meta["counts"]["3"] == c.n(3)


def test_export_matrices(runner, tmp_path):
    res = runner.invoke(
        main,
        ["export-matrices", "--geometry", "balls:1", "--degree", "1", "--out", str(tmp_path)],
    )
    assert res.exit_code == 0
    for name in ("d1", "mass1"):
        lines = (tmp_path / f"{name}.txt").read_text().splitlines()
        assert lines[0].startswith("# sparse triplet")
        rows, cols, nnz = (int(x) for x in lines[1].split())
        assert nnz == len(lines) - 2
        body = [ln.split() for ln in lines[2:]]
        assert all(len(b) == 3 for b in body)
        r = np.array([int(b[0]) for b in body])
        c = np.array([int(b[1]) for b in body])
        v = np.array([float(b[2]) for b in body])
        assert r.min() >= 0 and r.max() < rows and c.min() >= 0 and c.max() < cols
        if name == "d1":
            assert set(np.abs(v)) == {1.0}


# sha256 of export-matrices' files for hopf_link, res 1, degree 1, pinned before
# the triplet writer streamed chunks of .tolist() rows
GOLDEN_EXPORT = {
    "d1.txt": "4691d57d1210e980b7170a910c66d2909f994a365563cc728de2b58caa2146f0",
    "mass1.txt": "f0cdacc7a7158f35c39fa8133e7fead9b26fae7ac29b30ec0041862f47e1c25b",
}


def test_export_matrices_golden(runner, tmp_path):
    import hashlib

    res = runner.invoke(
        main,
        ["export-matrices", "--geometry", "hopf_link", "--res", "1", "--degree", "1",
         "--out", str(tmp_path)],
    )
    assert res.exit_code == 0, res.output
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in GOLDEN_EXPORT}
    assert got == GOLDEN_EXPORT


def test_stress_empty_pipeline(runner, tmp_path):
    res = runner.invoke(
        main,
        ["run", "stress", "--geometry", "cube_obstacle", "--empty", "--output", str(tmp_path)],
    )
    assert res.exit_code == 0, res.output
    summary = json.loads((tmp_path / "summary.json").read_text())
    names = [r["name"] for r in summary["result"]["assertions"]]
    assert "empty_nullity" in names
    assert summary["result"]["total_energy"] == 0.0


def test_run_hodge_pipeline(runner, tmp_path):
    res = runner.invoke(
        main,
        ["run", "hodge", "--geometry", "cube_obstacle", "--output", str(tmp_path)],
    )
    assert res.exit_code == 0, res.output
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["result"]["harmonic_dim"] == 1


def _forbid_eig(monkeypatch, forbidden):
    """Make every eig(op, count) for which ``forbidden(op, count)`` holds raise,
    wherever the pipelines reach it."""
    import decem.cli as cli
    import decem.spectral as spectral

    real = spectral.eig

    def checked(op, count="all", **kwargs):
        if forbidden(op, count):
            raise AssertionError(f"eigensolve of degree {op.p}, n = {op.n}, count {count!r}")
        return real(op, count, **kwargs)

    monkeypatch.setattr(cli, "eig", checked)
    monkeypatch.setattr(spectral, "eig", checked)  # eig(op, k) with k >= n - 1 recurses


def _forbid_complete_eig(monkeypatch):
    """Make eig(op, "all") raise wherever the pipelines reach it."""
    _forbid_eig(monkeypatch, lambda op, count: count == "all")


@pytest.mark.parametrize("res_", [1, 2])
def test_run_hodge_runs_no_dense_eigensolve(runner, tmp_path, monkeypatch, res_):
    """The split needs the kernel and Delta^+ on a few vectors, not a complete eigensystem
    (res 2 has n_1 = 2934)."""
    _forbid_complete_eig(monkeypatch)
    res = runner.invoke(
        main,
        ["run", "hodge", "--geometry", "cube_obstacle", "--res", str(res_), "--output",
         str(tmp_path)],
    )
    assert res.exit_code == 0, res.output
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["result"]["harmonic_dim"] == 1


@pytest.mark.parametrize("geometry, res_", [("balls:1", 1), ("cube_obstacle", 2)])
def test_run_maxwell_runs_no_dense_eigensolve(runner, tmp_path, monkeypatch, geometry, res_):
    """The evolution applies functions of Delta_1 to four cochains by Lanczos; lambda_min
    and the kernel come from a partial eig (cube_obstacle res 2 has n_1 = 2934)."""
    _forbid_complete_eig(monkeypatch)
    res = runner.invoke(
        main,
        ["run", "maxwell", "--geometry", geometry, "--res", str(res_), "--output",
         str(tmp_path)],
    )
    assert res.exit_code == 0, res.output
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["passed"] and len(summary["result"]["series"]) == 7


@pytest.mark.parametrize("geometry, res_", [("balls:1", 1), ("cube_obstacle", 2)])
def test_run_qft_runs_no_dense_eigensolve(runner, tmp_path, monkeypatch, geometry, res_):
    """The Krein map and the propagator moments are Lanczos functions of Delta_0 and
    Delta_1 on each test-form cochain; the kernels and Q_eps's basis come from partial
    eigs."""
    _forbid_complete_eig(monkeypatch)
    res = runner.invoke(
        main,
        ["run", "qft", "--geometry", geometry, "--res", str(res_), "--output", str(tmp_path)],
    )
    assert res.exit_code == 0, res.output
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["passed"] and len(summary["result"]["assertions"]) == 4


@pytest.mark.parametrize(
    "pipeline, factors", [("hodge", 3), ("maxwell", 3), ("qft", 3), ("topology", 5)]
)
def test_run_factors_each_matrix_once(runner, tmp_path, monkeypatch, pipeline, factors):
    """Every sparse LU (``splu``), keyed by the matrix it factors, is made once: each
    mass matrix M_p that a Laplacian or a codifferential needs, and the shifted
    quasi-definite matrix of each partial eig, which hodge's Delta^+ reuses.  hodge,
    maxwell and qft factor M_0, M_1 and the shifted Delta_1 (qft eigensolves no
    Delta_0); topology M_0, M_1, M_2 and the shifted Delta_1 and Delta_2."""
    import collections

    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    real, seen = spla.splu, collections.Counter()

    def counting(A, *args, **kwargs):
        B = sp.csc_matrix(A, copy=True)
        B.sum_duplicates()
        seen[B.shape, B.data.tobytes(), B.indices.tobytes(), B.indptr.tobytes()] += 1
        return real(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    res = runner.invoke(
        main, ["run", pipeline, "--geometry", "balls:1", "--output", str(tmp_path)]
    )
    assert res.exit_code == 0, res.output
    shapes = [(key[0], n) for key, n in seen.items()]
    assert all(n == 1 for n in seen.values()), shapes
    assert len(seen) == factors, shapes


@pytest.mark.parametrize(
    "pipeline, degrees",
    [("topology", {1: 1, 2: 1}), ("hodge", {1: 1}), ("maxwell", {1: 1}), ("qft", {0: 1, 1: 1})],
    ids=["topology", "hodge", "maxwell", "qft"],
)
def test_run_assembles_each_laplacian_once(monkeypatch, pipeline, degrees):
    """Each Hodge Laplacian a pipeline needs is assembled once, by degree, and handed to
    every eigensolve and calculus on it."""
    import collections
    import importlib

    import decem.spectral as spectral

    real, seen = spectral.assemble_laplacian, collections.Counter()

    def counting(ops, p):
        seen[p] += 1
        return real(ops, p)

    for name in ("cli", "spectral", "hodge", "maxwell", "qft", "stress", "topology"):
        mod = importlib.import_module(f"decem.{name}")
        if hasattr(mod, "assemble_laplacian"):
            monkeypatch.setattr(mod, "assemble_laplacian", counting)
    code, _summary = run_config({"geometry": "balls:1", "pipeline": pipeline})
    assert code == 0
    assert dict(seen) == degrees


def test_run_maxwell_steps_in_lockstep(monkeypatch):
    """run maxwell evolves its two start vectors (E0, Edot0) as one block, in one
    ``functions`` call: the Lanczos stepping makes one M_1 solve per lockstep step, at
    most the longest column's step count, not one per step of every column."""
    import decem.spectral as spectral
    from decem.forms import DecOperators

    real_factor, real_functions = DecOperators.mass_factor, spectral.LanczosCalculus.functions
    real_krylov = spectral.LanczosCalculus._krylov
    solves, depth, states, calls = {"stepping": 0, "all": 0}, [0], [], []

    class Counting:
        def __init__(self, factor):
            self.factor = factor

        def solve(self, b):
            solves["all"] += 1
            solves["stepping"] += depth[0] > 0
            return self.factor.solve(b)

    def mass_factor(self, p):
        return Counting(real_factor(self, p)) if p == 1 else real_factor(self, p)

    def functions(self, x, fs):
        depth[0] += 1
        if depth[0] == 1:
            calls.append(np.shape(x))
        try:
            return real_functions(self, x, fs)
        finally:
            depth[0] -= 1

    def krylov(self, x):
        states.append(real_krylov(self, x))
        return states[-1]

    monkeypatch.setattr(DecOperators, "mass_factor", mass_factor)
    monkeypatch.setattr(spectral.LanczosCalculus, "functions", functions)
    monkeypatch.setattr(spectral.LanczosCalculus, "_krylov", krylov)
    code, _summary = run_config({"geometry": "balls:1", "pipeline": "maxwell"})
    assert code == 0
    assert len(states) == 2 and len(calls) == 1 and calls[0][1] == 2
    assert 0 < solves["stepping"] <= max(kry.m for kry in states), (solves, [k.m for k in states])


def test_run_maxwell_applies_no_pseudo_inverse(monkeypatch):
    """B comes from Faraday's law, so run maxwell applies Delta^+ neither by refinement
    (``spectral.pseudo_inverse``, wherever it is bound) nor by spectral synthesis."""
    import importlib

    import decem.spectral as spectral

    def forbidden(*args):
        raise AssertionError("pseudo_inverse called")

    for name in ("cli", "spectral", "hodge", "maxwell", "qft", "stress", "topology"):
        mod = importlib.import_module(f"decem.{name}")
        if hasattr(mod, "pseudo_inverse"):
            monkeypatch.setattr(mod, "pseudo_inverse", forbidden)
    monkeypatch.setattr(spectral.SpectralDecomposition, "pseudo_inverse", forbidden)
    code, _summary = run_config({"geometry": "balls:1", "pipeline": "maxwell"})
    assert code == 0


def test_run_qft_makes_no_eigensolve_of_delta0(monkeypatch):
    """ker Delta_0 comes from the spanning forest (rank d_0 = n_0), so run qft
    eigensolves Delta_1 alone."""
    _forbid_eig(monkeypatch, lambda op, count: op.p == 0)
    code, summary = run_config({"geometry": "balls:1", "pipeline": "qft"})
    assert code == 0 and summary["passed"]


def _simplex_boundary_mesh(path) -> None:
    """The boundary of a 4-simplex as a decmesh: five vertices in general position in
    R^3 and the five tetrahedra on four of them, a closed 3-manifold (every triangle
    on two tetrahedra).  Nothing is on a boundary, so rank d_0 = n_0 - 1."""
    from itertools import combinations

    from decem.mesh import SimplicialComplex

    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float)
    cells = np.array(list(combinations(range(5), 4)))
    path.write_text(SimplicialComplex.from_top_cells(verts, cells).to_text())


def test_qft_delta0_kernel_exits_2_before_eigensolves(runner, tmp_path, monkeypatch):
    """A vertex component that touches no boundary gives Delta_0 a kernel, which the
    Krein map cannot take: run qft names its dimension and exits 2 before any eig."""
    import yaml

    _forbid_eig(monkeypatch, lambda op, count: True)
    mesh = tmp_path / "simplex_boundary.decmesh"
    _simplex_boundary_mesh(mesh)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"geometry": {"mesh": str(mesh)}}))
    res = runner.invoke(main, ["run", "qft", "--config", str(path), "--output",
                               str(tmp_path / "out")])
    assert res.exit_code == 2, res.output
    assert "config error: /geometry: Delta_0 has a kernel of dimension 1" in res.output


def test_topology_truncated_kernel_is_a_failed_row(runner, tmp_path, monkeypatch):
    """A partial eig that cuts ker Delta_1 short fails harmonic_match, with no exception."""
    import decem.cli as cli

    real = cli.eig
    monkeypatch.setattr(
        cli, "eig", lambda op, count, **kw: real(op, 2 if op.p == 1 else count, **kw)
    )
    res = runner.invoke(
        main, ["run", "topology", "--geometry", "balls:3", "--output", str(tmp_path)]
    )
    assert res.exit_code == 1, res.output
    rows = json.loads((tmp_path / "summary.json").read_text())["result"]["assertions"]
    got = {r["name"]: (r["ok"], r["value"]) for r in rows if r["name"].startswith("harmonic")}
    assert got == {"harmonic_match_p1": (False, 2), "harmonic_match_p2": (True, 0)}


def test_missing_mesh_path_config_error(runner, tmp_path):
    import yaml

    missing = tmp_path / "no_such.decmesh"
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"geometry": {"mesh": str(missing)}}))
    res = runner.invoke(main, ["run", "topology", "--config", str(path)])
    assert res.exit_code == 2
    assert str(missing) in res.output


def test_internal_key_error_is_not_config_error(runner, monkeypatch):
    import decem.cli as cli

    def broken(cfg, scenario, material):
        raise KeyError("planted internal lookup")

    monkeypatch.setitem(cli.PIPELINES, "topology", broken)
    res = runner.invoke(main, ["run", "topology", "--geometry", "balls:1"])
    assert res.exit_code != 2
    assert isinstance(res.exception, KeyError)


@pytest.mark.parametrize("degree", ["-1", "4", "5"])
def test_export_matrices_degree_out_of_range(runner, tmp_path, degree):
    res = runner.invoke(
        main,
        ["export-matrices", "--geometry", "balls:1", "--degree", degree, "--out", str(tmp_path)],
    )
    assert res.exit_code == 2, res.output
    assert "config error: --degree: must be in 0..3" in res.output
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("res_flag", ["0", "-1"])
@pytest.mark.parametrize("command", ["run", "dump-mesh", "export-matrices"])
def test_res_below_one_config_error(runner, tmp_path, command, res_flag):
    argv = {
        "run": ["run", "topology"],
        "dump-mesh": ["dump-mesh"],
        "export-matrices": ["export-matrices", "--out", str(tmp_path / "m")],
    }[command]
    res = runner.invoke(main, [*argv, "--geometry", "balls:1", "--res", res_flag])
    assert res.exit_code == 2, res.output
    assert "resolution must be an integer >= 1" in res.output


def test_config_res_below_one_config_error(runner, tmp_path):
    import yaml

    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"geometry": "balls:1", "res": 0}))
    res = runner.invoke(main, ["run", "topology", "--config", str(path)])
    assert res.exit_code == 2, res.output
    assert "/res: resolution must be an integer >= 1" in res.output
    with pytest.raises(ConfigError, match="/res"):
        validate_config({"geometry": "balls:1", "res": -1})


@pytest.mark.parametrize(
    "material, where",
    [
        ({1: 2.0}, "/material/1: must be a mapping"),
        ({"a": {"eps": "two"}}, "/material/a/eps: must be a number"),
        ({"a": {"mu": None}}, "/material/a/mu: must be a number"),
        ({"a": {"eps": 0.0}}, "/material/a/eps: must be positive"),
        ({"a": {"mu": -1.5}}, "/material/a/mu: must be positive"),
    ],
)
def test_material_config_errors(material, where):
    with pytest.raises(ConfigError, match=where):
        material_from_config({"material": material})


def test_material_config_error_exits_2(runner, tmp_path):
    import yaml

    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"geometry": "balls:1", "material": {1: 2.0}}))
    res = runner.invoke(main, ["run", "topology", "--config", str(path)])
    assert res.exit_code == 2, res.output
    assert "/material/1" in res.output


def test_stress_t0k_row_reports_checked_tolerance():
    cfg = {"geometry": "cube_obstacle", "pipeline": "stress",
           "params": {"t0k_tol": 1e-3, "decay": False}}
    _code, summary = run_config(cfg)
    row = next(r for r in summary["result"]["assertions"] if r["name"] == "t0k")
    assert row["tol"] == 1e-3 and row["ok"]


# the cube_obstacle res-1 stress summary before the kernels moved to the cell pattern
GOLDEN_STRESS = {
    "total_energy": 9.640501066071916,
    "trace_d1": -11.325074119842451,
    "trace_d2": -27.236930144445218,
    "decay_slope": -2.8275450057634024,
}


def test_run_stress_cube_obstacle_summary_pinned():
    code, summary = run_config({"geometry": "cube_obstacle", "pipeline": "stress"})
    result = summary["result"]
    rows = {r["name"]: r for r in result["assertions"]}
    got = {k: result[k] for k in ("total_energy", "trace_d1", "trace_d2")}
    got["decay_slope"] = rows["decay_slope"]["value"]
    for key, want in GOLDEN_STRESS.items():
        assert abs(got[key] - want) <= 1e-12 * abs(want), key
    # the decay gate is the known failure; every other row passes
    assert code == 1 and [n for n, r in rows.items() if not r["ok"]] == ["decay_slope"]


@pytest.mark.parametrize(
    "pipeline, patch, where",
    [
        ("topology", {"params": 3}, "/params: must be a mapping"),
        ("topology", {"geometry": 5}, "/geometry: must be a canned name or a mapping"),
        ("topology", {"seed": "abc"}, "/seed: seed must be an integer >= 0"),
        ("topology", {"seed": -1}, "/seed: seed must be an integer >= 0"),
        ("maxwell", {"params": {"n_times": 0}}, "/params/n_times: n_times must be an integer >= 2"),
        ("maxwell", {"params": {"n_times": 1}}, "/params/n_times: n_times must be an integer >= 2"),
        ("maxwell", {"params": {"t_end": 0.0}}, "/params/t_end: must be positive and finite"),
        ("maxwell", {"params": {"t_end": "soon"}}, "/params/t_end: must be a number"),
        ("stress", {"params": {"n_lam": 1}}, "/params/n_lam: n_lam must be an integer >= 2"),
        ("hodge", {"params": {"n_random": 0}},
         "/params/n_random: n_random must be an integer >= 1"),
        ("stress", {"params": {"lam_min": 0}}, "/params/lam_min: must be positive and finite"),
        ("hodge", {"params": {"capacity_expected": 0}},
         "/params/capacity_expected: must be positive and finite"),
        ("maxwell", {"params": {"residual_tol": float("inf")}},
         "/params/residual_tol: tolerance must be positive and finite"),
        ("qft", {"params": {"identity_tol": True}},
         "/params/identity_tol: tolerance must be a number"),
    ],
)
def test_bad_run_config_exits_2_naming_key(runner, tmp_path, pipeline, patch, where):
    import yaml

    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"geometry": "balls:1", **patch}))
    res = runner.invoke(main, ["run", pipeline, "--config", str(path)])
    assert res.exit_code == 2, res.output
    assert f"config error: {where}" in res.output
    with pytest.raises(ConfigError, match=where):
        validate_config({"geometry": "balls:1", **patch})


@pytest.mark.parametrize(
    "q_eps, where",
    [
        (3, "/params/q_eps: must be a mapping"),
        ([1.0, 2.0], "/params/q_eps: must be a mapping"),
        ({"eps": 0}, "/params/q_eps/eps: must be positive and finite"),
        ({"eps": -1.0}, "/params/q_eps/eps: must be positive and finite"),
        ({"eps": float("inf")}, "/params/q_eps/eps: must be positive and finite"),
        ({"eps": "small"}, "/params/q_eps/eps: must be a number"),
        ({"r_plateau": 0.0}, "/params/q_eps/r_plateau: must be positive and finite"),
        ({"r_zero": float("nan")}, "/params/q_eps/r_zero: must be positive and finite"),
        ({"r_plateau": 2.0, "r_zero": 2.0}, "/params/q_eps/r_zero: must exceed r_plateau"),
        ({"r_plateau": 3.0, "r_zero": 1.0}, "/params/q_eps/r_zero: must exceed r_plateau"),
        ({"center": [0.0, 0.0]}, "/params/q_eps/center: must be a finite 3-vector"),
        ({"center": [0.0, 0.0, float("inf")]}, "/params/q_eps/center: must be a finite 3-vector"),
        ({"center": "origin"}, "/params/q_eps/center: must be a finite 3-vector"),
        ({"center": [0.0, True, 0.0]}, "/params/q_eps/center: must be a finite 3-vector"),
    ],
)
def test_bad_q_eps_exits_2_before_eigensolves(runner, tmp_path, monkeypatch, q_eps, where):
    import yaml

    import decem.cli as cli

    def no_eig(*args, **kwargs):
        raise AssertionError("eigensolve ran before the config check")

    monkeypatch.setattr(cli, "eig", no_eig)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"geometry": "balls:1", "params": {"q_eps": q_eps}}))
    res = runner.invoke(main, ["run", "qft", "--config", str(path)])
    assert res.exit_code == 2, res.output
    assert f"config error: {where}" in res.output
    with pytest.raises(ConfigError, match=where):
        validate_config({"geometry": "balls:1", "params": {"q_eps": q_eps}})


def test_q_eps_default_radius_below_given_plateau_exits_2(runner, monkeypatch):
    """A single radius is checked against the other's mesh-scaled default, before eig."""
    import decem.cli as cli

    def no_eig(*args, **kwargs):
        raise AssertionError("eigensolve ran before the config check")

    monkeypatch.setattr(cli, "eig", no_eig)
    cfg = {"geometry": "balls:1", "pipeline": "qft", "params": {"q_eps": {"r_plateau": 1e3}}}
    validate_config(dict(cfg))
    with pytest.raises(ConfigError, match="/params/q_eps/r_zero: must exceed r_plateau = 1000.0"):
        run_config(cfg)
