"""Run one `decem` CLI operation in this fresh process and write its record.

Usage: python3 perfbench/worker.py SPEC_JSON

SPEC_JSON holds: root (checkout root), argv (CLI arguments), command,
geometry, t0 (time.monotonic() just before this process was started), trace
(bool), outdir (the operation's output directory) and result (path of the
JSON record to write).  The parent sets PYTHONPATH to the checkout's src/.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

PIPELINE_MODULES = ("decem.topology", "decem.hodge", "decem.maxwell", "decem.qft", "decem.stress")


def main() -> int:
    spec = json.loads(sys.argv[1])
    root = Path(spec["root"]).resolve()
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    import decem
    from decem import cli, geometries

    # the pipelines import these lazily; importing them here makes them set-up
    for name in PIPELINE_MODULES:
        with contextlib.suppress(ModuleNotFoundError):
            importlib.import_module(name)

    if not Path(decem.__file__).resolve().is_relative_to(root / "src"):
        raise RuntimeError(f"decem imported from {decem.__file__}, not from {root / 'src'}")

    # keep the mesh the command builds, for the Euler checks
    built = []
    canned = geometries.canned_scenario

    def capture(*args, **kwargs):
        scenario = canned(*args, **kwargs)
        built.append(scenario)
        return scenario

    geometries.canned_scenario = capture
    import checks

    ready = time.monotonic()
    buf = io.StringIO()
    exit_code, error = 0, None
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            if tracer:
                tracer.root(cli.main.main, args=spec["argv"], prog_name="decem", standalone_mode=False)
            else:
                cli.main.main(args=spec["argv"], prog_name="decem", standalone_mode=False)
    except SystemExit as exc:
        exit_code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:
        exit_code, error = -1, traceback.format_exc()
    done = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "setup_s": ready - spec["t0"],
        "op_s": done - ready,
        "peak_rss_mb": peak_rss_mb,
        "exit_code": exit_code,
        "error": error,
        "output_tail": buf.getvalue()[-2000:],
    }
    if error is None:
        try:
            carved = None
            if built:
                cplx = built[-1].carved
                carved = (cplx.dim, {p: cplx.simplices[p] for p in range(cplx.dim + 1)})
            record["checks"] = checks.check_operation(
                spec["command"], spec["geometry"], Path(spec["outdir"]), carved
            )
        except Exception:
            record["checks"] = [checks.check("checks_ran", False, traceback.format_exc())]
    else:
        record["checks"] = []
    if tracer:
        record["layers"] = tracer.report()
        record["spans"] = tracer.spans
        record["trace_missing"] = tracer.missing
    Path(spec["result"]).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
