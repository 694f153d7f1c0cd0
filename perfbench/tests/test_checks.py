"""Each independent check must flag a wrong answer; failures must be counted.

Run with: python3 -m pytest perfbench/tests
"""

from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import checks
from run import classify, run_op, summarize
from workloads import Op


def coned_cube():
    """The cube [0,1]^3 coned from an interior vertex: 12 tets, a 3-ball.

    Corner (x, y, z) has id 4x + 2y + z; the centre is vertex 8.
    """
    cycles = [(0, 2, 3, 1), (4, 6, 7, 5), (0, 4, 5, 1), (2, 6, 7, 3), (0, 4, 6, 2), (1, 5, 7, 3)]
    tets = []
    for a, b, c, d in cycles:
        tets += [sorted((a, b, c, 8)), sorted((a, c, d, 8))]
    tets = np.array(sorted(tets))
    simplices = {3: tets}
    for p in (0, 1, 2):
        faces = {tuple(sorted(f)) for t in tets for f in combinations(t, p + 1)}
        simplices[p] = np.array(sorted(faces)).reshape(-1, p + 1)
    return simplices


def decmesh_text(simplices) -> str:
    lines = ["decmesh 1", "dim 3", "vertices 9"] + ["0.0 0.0 0.0"] * 9
    for p in (1, 2, 3):
        lines.append(f"simplices {p} {len(simplices[p])}")
        lines += [" ".join(map(str, s)) for s in simplices[p]]
    lines += [f"regions {len(simplices[3])}"] + ["-"] * len(simplices[3]) + ["boundary", "end"]
    return "\n".join(lines) + "\n"


def triplets(shape, entries, wrap="np.float64") -> str:
    body = [f"{r} {c} {wrap}({v!r})" if wrap else f"{r} {c} {v!r}" for r, c, v in entries]
    return "\n".join(["# sparse triplet: rows cols nnz", f"{shape[0]} {shape[1]} {len(body)}", *body]) + "\n"


def d1_entries(kept):
    """d1 on kept faces and edges, from the sorted-vertex rule: +(b,c) -(a,c) +(a,b)."""
    col = {tuple(e): j for j, e in enumerate(kept[1].tolist())}
    out = []
    for i, (a, b, c) in enumerate(kept[2].tolist()):
        for edge, sign in (((a, b), 1.0), ((a, c), -1.0), ((b, c), 1.0)):
            if edge in col:
                out.append((i, col[edge], sign))
    return sorted(out)


def failed_names(results):
    return {c["name"] for c in results if not c["ok"]}


# -- Betti and Euler --------------------------------------------------------------------


def test_betti_table():
    assert checks.betti("balls:3") == (3, 0)
    assert checks.betti("solid_torus") == (1, 1)
    assert checks.betti("hopf_link") == (2, 2)
    with pytest.raises(KeyError):
        checks.betti("no_such_geometry")


def test_euler_identities_hold_on_a_ball():
    simplices = coned_cube()
    kept = checks.kept_simplices(simplices, 3)
    assert [len(kept[p]) for p in range(4)] == [1, 8, 18, 12]
    assert failed_names(checks.euler_checks(simplices, 3, 0, 0)) == set()


@pytest.mark.parametrize("h1,h2", [(1, 0), (0, 1)])
def test_euler_flags_a_betti_number_off_by_one(h1, h2):
    assert failed_names(checks.euler_checks(coned_cube(), 3, h1, h2)) == {"euler_chi"}


def test_euler_relative_flags_a_wrong_kept_count():
    simplices = coned_cube()
    simplices[1] = simplices[1][1:]  # drop an edge: chi and the kept sum disagree
    assert "euler_relative" in failed_names(checks.euler_checks(simplices, 3, -1, 0))


def test_decmesh_parser_counts():
    dim, parsed = checks.parse_decmesh(decmesh_text(coned_cube()))
    assert dim == 3 and [len(parsed[p]) for p in range(4)] == [9, 26, 30, 12]
    assert failed_names(checks.euler_checks(parsed, 3, 0, 0, prefix="dump_")) == set()
    assert failed_names(checks.euler_checks(parsed, 3, 2, 0, prefix="dump_")) == {"dump_euler_chi"}


# -- exported matrices ------------------------------------------------------------------


def test_d1_checks_pass_on_the_oriented_incidence():
    kept = checks.kept_simplices(coned_cube(), 3)
    text = triplets((18, 8), d1_entries(kept), wrap="np.int64")
    assert failed_names(checks.d1_checks(text, kept)) == set()


def test_d1_flags_a_flipped_sign():
    kept = checks.kept_simplices(coned_cube(), 3)
    entries = d1_entries(kept)
    r, c, v = entries[5]
    entries[5] = (r, c, -v)
    assert failed_names(checks.d1_checks(triplets((18, 8), entries), kept)) == {"d1_oriented_incidence"}


def test_d1_flags_bad_entries_and_rows():
    entries = [(0, 0, 2.0), (1, 0, 1.0), (1, 1, 1.0), (1, 2, -1.0), (1, 3, 1.0)]
    assert failed_names(checks.d1_checks(triplets((2, 4), entries), None)) == {
        "d1_entries_pm1", "d1_row_nnz_le3"}


def test_mass_checks():
    good = [(0, 0, 2.0), (0, 1, 0.5), (1, 0, 0.5), (1, 1, 3.0)]
    assert failed_names(checks.mass_checks(triplets((2, 2), good))) == set()
    asym = [(0, 0, 2.0), (0, 1, 0.5), (1, 0, 0.5 + 1e-9), (1, 1, 3.0)]
    assert failed_names(checks.mass_checks(triplets((2, 2), asym))) == {"mass1_symmetric"}
    one_sided = [(0, 0, 2.0), (0, 1, 0.5), (1, 1, 3.0)]
    assert failed_names(checks.mass_checks(triplets((2, 2), one_sided))) == {"mass1_symmetric"}
    bad_diag = [(0, 0, 2.0), (1, 1, -3.0)]
    assert failed_names(checks.mass_checks(triplets((2, 2), bad_diag))) == {"mass1_positive_diagonal"}


def test_triplet_header_must_match_the_body():
    text = triplets((2, 2), [(0, 0, 1.0)]).replace("2 2 1", "2 2 2")
    with pytest.raises(ValueError):
        checks.parse_triplets(text)


def test_values_parse_plain_and_wrapped():
    assert checks.parse_value("-1") == -1.0
    assert checks.parse_value("np.int64(-1)") == -1.0
    assert checks.parse_value("np.float64(0.1)") == 0.1


# -- pipeline summaries ----------------------------------------------------------------


def summary(rows, **result):
    return {"passed": all(ok for _, ok in rows),
            "result": {"assertions": [{"name": n, "ok": ok} for n, ok in rows], **result}}


def test_topology_dims_off_by_one_flagged():
    good = summary([("dim_H1", True)], dims={"0": 0, "1": 1, "2": 1, "3": 1})
    assert failed_names(checks.summary_checks("topology", good, 1, 1)) == set()
    off = summary([("dim_H1", True)], dims={"0": 0, "1": 2, "2": 1, "3": 1})
    assert failed_names(checks.summary_checks("topology", off, 1, 1)) == {"betti_table"}


def test_harmonic_dim_off_by_one_flagged():
    s = summary([("helmholtz_orthogonality", True)], harmonic_dim=2)
    assert failed_names(checks.summary_checks("hodge", s, 1, 0)) == {"harmonic_dim_is_H1"}


def test_failed_row_flagged():
    s = summary([("trace_identity", True), ("decay_slope", False)])
    out = checks.summary_checks("stress", s, 1, 0)
    assert failed_names(out) == {"assertion_rows"}
    assert out[0]["failed_rows"] == ["decay_slope"]


# -- counting failures -----------------------------------------------------------------


def record(exit_code, checks_=None):
    return {"exit_code": exit_code, "checks": checks_ or [checks.check("x", True)],
            "op_s": 1.0, "setup_s": 0.5, "peak_rss_mb": 100.0}


def test_nonzero_exit_is_a_failure():
    op = Op("topology", "balls:1", 1)
    assert classify(op, record(0)) == (False, True)
    assert classify(op, record(2)) == (True, False)
    assert classify(op, record(None, [])) == (True, False)


def test_known_fault_is_recognised_only_as_named():
    op = Op("stress", "cube_obstacle", 1, known_fault="decay_slope")
    rows = checks.summary_checks("stress", summary([("t0k", True), ("decay_slope", False)]), 1, 0)
    assert classify(op, record(1, rows)) == (True, True)
    other = checks.summary_checks("stress", summary([("t0k", False), ("decay_slope", True)]), 1, 0)
    assert classify(op, record(1, other)) == (True, False)
    assert classify(op, record(2, rows)) == (True, False)


def test_summarize_counts_a_nonzero_exit():
    ops = (Op("topology", "balls:1", 1), Op("hodge", "balls:1", 1))
    records = [record(0), record(3)]
    for op, r in zip(ops, records):
        r["failed"], r["expected"] = classify(op, r)
    s = summarize("t", ops, [records], trace=False)
    assert (s["attempted"], s["failed"], s["correct"]) == (2, 1, False)
    assert set(s["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
    assert set(s["commands"]) == {"topology_s", "hodge_s"}


def test_worker_counts_a_cli_error_exit(tmp_path):
    rec = run_op(Op("topology", "no_such_geometry", 1), 0, False, tmp_path / "w", 120.0)
    assert rec["exit_code"] == 2
    assert (rec["failed"], rec["expected"]) == (True, False)


def test_worker_runs_and_checks_a_real_operation(tmp_path):
    rec = run_op(Op("topology", "solid_torus", 1), 0, False, tmp_path / "w", 120.0)
    assert rec["exit_code"] == 0, rec
    assert {c["name"] for c in rec["checks"]} >= {"euler_chi", "euler_relative", "betti_table"}
    assert (rec["failed"], rec["expected"]) == (False, True)
    assert rec["setup_s"] > 0 and rec["op_s"] > 0 and rec["peak_rss_mb"] > 0
