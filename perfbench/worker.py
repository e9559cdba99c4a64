"""One benchmark worker: set up a workload, then run its ops in a closed loop.

Started by run.py in a fresh process whose environment pins BLAS and
OpenMP to one thread.  It imports ``gennet.cli`` from the checkout's
``src``, generates the workload's inputs from the seed, and reports the
moment it is ready; that is where set-up ends.  With ``--setup-only`` it
stops there.  Otherwise one client runs ops back to back until
``--seconds`` have passed: each op is the workload's ``gennet.cli.main``
calls (timed), followed by the output checks (not timed).  The result is
written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(Path(__file__).resolve().parent)]


def _import_cli():
    import gennet.cli

    if Path(gennet.cli.__file__).resolve().parent != ROOT / "src" / "gennet":
        raise ImportError(f"gennet imported from {gennet.cli.__file__}, not the checkout")
    return gennet.cli


def _csv_bytes(steps) -> int:
    return sum(p.stat().st_size for st in steps for p in st.out.glob("*.csv"))


def _run_op(cli_main, steps, tracer, devnull):
    """Run one op's CLI calls; return (wall s, CPU s, exit codes, root span or None)."""
    codes = []
    with contextlib.redirect_stdout(devnull):
        root = tracer.begin_op() if tracer else None
        t0, c0 = time.perf_counter(), time.process_time()
        for st in steps:
            try:
                if tracer:
                    codes.append(tracer.call(f"cli.{st.argv[0]}", cli_main, st.argv))
                else:
                    codes.append(cli_main(st.argv))
            except Exception:  # an op that raises is a failed op, not a crash
                codes.append(traceback.format_exc(limit=3))
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if tracer:
            tracer.close(root)
    return wall, cpu, codes, root


def _check_op(steps, codes) -> list:
    """Every problem with the op's exit codes and outputs; empty when it passed."""
    errors = []
    for st, code in zip(steps, codes):
        if code != st.expect_exit:
            errors.append(f"{st.name}: exit {code!r}, expected {st.expect_exit}")
            continue
        try:
            errors += [f"{st.name}: {e}" for e in st.check(st.out)]
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            errors.append(f"{st.name}: unreadable output ({exc!r})")
    return errors


def reference_cpu_s() -> float:
    """CPU seconds of one run of a fixed kernel that does not use gennet.

    The kernel mixes the kinds of work the workloads do: numpy calls on
    small arrays, plain Python arithmetic and a dense LAPACK eigensolve.
    It takes about 12 ms on a 2.1 GHz Xeon and touches under 1 MB, so it
    does not move the peak RSS.  Run next to every op, it tracks how fast
    the machine runs at that moment.
    """
    c0 = time.process_time()
    small = np.linspace(0.0, 1.0, 24 * 199).reshape(24, 199)
    for _ in range(150):
        np.linalg.norm(np.maximum(small * 0.5 + small, 0.1), axis=1)
    acc = 0
    for i in range(40000):
        acc += i * i % 7
    sym = np.linspace(0.0, 1.0, 200 * 200).reshape(200, 200)
    sym = sym + sym.T + 400.0 * np.eye(200)
    for _ in range(3):
        np.linalg.eigvalsh(sym)
    return time.process_time() - c0


def _versions() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas}


def _measure(cli_main, steps, tracer, seconds: float) -> dict:
    """The closed loop: ops back to back until ``seconds`` have passed.

    With a tracer, ops alternate between traced and plain (wrappers taken
    out), starting with a traced one, and at least one of each runs.  The
    plain ops give the tracing overhead in the same process.
    """
    op_s, op_cpu_s, ref_cpu_s = [], [], [reference_cpu_s()]
    failed, errors, layers, spans_self_s = 0, [], [], []
    cpu0, start = time.process_time(), time.perf_counter()
    with open(os.devnull, "w") as devnull:
        while len(op_s) < (2 if tracer else 1) or time.perf_counter() - start < seconds:
            on = tracer if tracer and len(op_s) % 2 == 0 else None
            if on:
                on.install()
            wall, cpu, codes, root = _run_op(cli_main, steps, on, devnull)
            if on:
                on.uninstall()
            op_s.append(wall)
            op_cpu_s.append(cpu)
            ref_cpu_s.append(reference_cpu_s())
            errs = _check_op(steps, codes)
            if errs:
                failed += 1
                errors += errs[:3]
            if on:
                on.counts["cli.csv_bytes"] = _csv_bytes(steps)
                metrics, below_root = on.op_metrics(root)
                layers.append(metrics)
                spans_self_s.append(below_root)
    return {
        "op_s": op_s, "op_cpu_s": op_cpu_s, "ref_cpu_s": ref_cpu_s,
        "failed": failed, "errors": errors[:10], "layers": layers,
        "spans_self_s": spans_self_s,
        "loop_wall_s": time.perf_counter() - start, "loop_cpu_s": time.process_time() - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unwrapped": tracer.missing if tracer else [],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launched", type=float, required=True,
                    help="time.monotonic() in the parent just before launch")
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cli = _import_cli()
    from workloads import WORKLOADS

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    steps = WORKLOADS[args.workload](work, args.seed)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()  # wraps once, so set-up includes it
        tracer.uninstall()
    result = {"setup_s": time.monotonic() - args.launched}

    if not args.setup_only:
        result.update(_measure(cli.main, steps, tracer, args.seconds))
        result["versions"] = _versions()
        if tracer and args.spans:
            tracer.write(args.spans)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
