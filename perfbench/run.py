"""Benchmark of the `decem` CLI: one fresh process per operation.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py [--seed N] [--seconds S]     # every workload, both modes

A run repeats whole rounds of the workload's operations until --seconds have
passed (at least one round).  With --trace 0 it reports the end-to-end
metrics; with --trace 1 every operation runs under the layer spans of
spans.py and the run reports per-layer metrics.  The last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
Results and traces are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import COUNTERS, TIME_GROUPS
from workloads import WORKLOADS, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEADLINE_S = 170.0  # a run must end within 180 s
# One BLAS thread: on a shared two-core host, two OpenBLAS threads slowed a
# dense solve up to sixfold whenever another process held one core.
BLAS_THREADS = "1"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"{g}_s": "s" for g in TIME_GROUPS},
    **{c: "count" for c in COUNTERS},
    "trace.spans": "count",
    "trace.wall_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
    )
    return env


def run_op(op: Op, seed: int, trace: bool, workdir: Path, timeout: float) -> dict:
    """Run one operation in a fresh process; return its record."""
    outdir = workdir / "out"
    outdir.mkdir(parents=True)
    result = workdir / "record.json"
    spec = {
        "root": str(ROOT), "argv": op.argv(seed, str(outdir)), "command": op.command,
        "geometry": op.geometry, "trace": trace, "outdir": str(outdir), "result": str(result),
    }
    t0 = time.monotonic()
    spec["t0"] = t0
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            env=child_env(), cwd=str(ROOT), capture_output=True, text=True, timeout=timeout,
        )
        crashed = proc.returncode != 0 or not result.exists()
        detail = proc.stderr[-2000:]
    except subprocess.TimeoutExpired:
        crashed, detail = True, f"timed out after {timeout:.0f} s"
    if crashed:
        record = {"exit_code": None, "error": detail, "checks": [],
                  "setup_s": 0.0, "op_s": time.monotonic() - t0, "peak_rss_mb": 0.0}
    else:
        record = json.loads(result.read_text())
    shutil.rmtree(workdir, ignore_errors=True)
    record["op"] = op.label()
    record["failed"], record["expected"] = classify(op, record)
    return record


def classify(op: Op, record: dict) -> tuple[bool, bool]:
    """(failed, expected): a failure is expected only as the op's named known fault."""
    bad = [c for c in record["checks"] if not c["ok"]]
    if record["exit_code"] == 0 and record["checks"] and not bad:
        return False, True
    known = (
        op.known_fault is not None
        and record["exit_code"] == 1
        and [c["name"] for c in bad] == ["assertion_rows"]
        and bad[0]["failed_rows"] == [op.known_fault]
    )
    return True, known


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = WORKLOADS[name]
    start = time.monotonic()
    rounds: list[list[dict]] = []
    while not rounds or time.monotonic() - start < seconds:
        records = []
        for i, op in enumerate(ops):
            left = DEADLINE_S - (time.monotonic() - start)
            workdir = OUT / "work" / f"{os.getpid()}-{len(rounds)}-{i}"
            shutil.rmtree(workdir, ignore_errors=True)
            records.append(run_op(op, seed, trace, workdir, max(left, 1.0)))
        rounds.append(records)
    return summarize(name, ops, rounds, trace)


def summarize(name: str, ops: tuple[Op, ...], rounds: list[list[dict]], trace: bool) -> dict:
    records = [r for rnd in rounds for r in rnd]
    failed = sum(r["failed"] for r in records)
    correct = all(r["expected"] for r in records)

    def median_over_rounds(fn):
        return statistics.median(fn(rnd) for rnd in rounds)

    wall = median_over_rounds(lambda rnd: sum(r["op_s"] for r in rnd))
    commands = {
        metric: median_over_rounds(
            lambda rnd: sum(r["op_s"] for r, op in zip(rnd, ops) if op.metric == metric))
        for metric in dict.fromkeys(op.metric for op in ops)
    }
    if trace:
        metrics = {}
        for key in PER_LAYER:
            if key == "trace.wall_s":
                metrics[key] = wall
            elif key == "spectral.eig_dense_max_n":
                metrics[key] = max(r.get("layers", {}).get(key, 0) for r in records)
            else:
                metrics[key] = median_over_rounds(
                    lambda rnd: sum(r.get("layers", {}).get(key, 0) for r in rnd))
        units = PER_LAYER
    else:
        # set-up: the median process set-up time, times the processes in a round
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(r["setup_s"] for r in records) * len(ops),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
        }
        units = END_TO_END
    return {
        "workload": name,
        "trace": trace,
        "rounds": len(rounds),
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "commands": {k: {"value": v, "unit": "s"} for k, v in commands.items()},
        "records": records,
    }


def write_outputs(summary: dict, seed: int) -> None:
    """Result file per run; with tracing, the spans of every operation too."""
    tag = f"{summary['workload']}-seed{seed}-trace{int(summary['trace'])}"
    spans = [{"op": r["op"], "spans": r.pop("spans", [])} for r in summary["records"]]
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(summary, indent=1))
    if summary["trace"]:
        header = "span id, parent id, group, name, start, end (perf_counter seconds)"
        (OUT / f"trace-{tag}.json").write_text(json.dumps({"columns": header, "ops": spans}))


def print_summary(summary: dict) -> None:
    mode = "traced" if summary["trace"] else "untraced"
    print(f"== {summary['workload']} ({mode}, {summary['rounds']} round(s)): "
          f"attempted {summary['attempted']}, failed {summary['failed']}, "
          f"correct {str(summary['correct']).lower()}")
    for r in summary["records"]:
        status = "FAIL (known fault)" if r["failed"] and r["expected"] else (
            "FAIL" if r["failed"] else "ok")
        print(f"   {r['op']:32s} {r['op_s']:8.3f} s  setup {r['setup_s']:.3f} s  "
              f"rss {r['peak_rss_mb']:7.1f} MB  {status}")
        for c in r["checks"]:
            if not c["ok"]:
                print(f"      check {c['name']}: {c['detail']}")
        if r.get("error"):
            print("      " + r["error"].strip().splitlines()[-1])
        if r.get("trace_missing"):
            print(f"      not traced, name not found: {', '.join(r['trace_missing'])}")
    for table in ("metrics", "commands"):
        for key, m in summary[table].items():
            print(f"   {key:30s} {m['value']:.6g} {m['unit']}")


def result_line(summary: dict) -> str:
    return json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": summary["metrics"],
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "decem" / "__init__.py").is_file():
        print(f"error: no decem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload:
        summary = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        write_outputs(summary, args.seed)
        print_summary(summary)
        print(result_line(summary))
        return 0

    overall = {}
    for name in WORKLOADS:
        plain = run_workload(name, args.seed, args.seconds, False)
        traced = run_workload(name, args.seed, args.seconds, True)
        for s in (plain, traced):
            write_outputs(s, args.seed)
            print_summary(s)
        overhead = traced["metrics"]["trace.wall_s"]["value"] - plain["metrics"]["wall_s"]["value"]
        print(f"   trace overhead (traced - untraced wall_s) {overhead:.3f} s")
        overall[name] = json.loads(result_line(plain))
        overall[name]["trace_overhead_s"] = overhead
    print(json.dumps(overall))
    return 0


if __name__ == "__main__":
    sys.exit(main())
