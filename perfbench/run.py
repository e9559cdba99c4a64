"""gennet benchmark: one command for every workload, or one workload per run.

    python3 perfbench/run.py                       # all workloads, untraced and traced
    python3 perfbench/run.py --workload small-nets --seed 3 --seconds 50 --trace 0

With ``--workload`` the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The lines before it record the run environment and the
figures that are not metrics (tail percentile, fail ratio).  Without
``--workload`` every workload runs untraced and then traced, and a table
of all metrics, tracing overheads and environments is printed.

Each run launches the workload's worker (worker.py) in fresh processes
whose BLAS and OpenMP pools are pinned to one thread.  An untraced run
first starts SETUP_PROBES workers that only set up; ``setup_s`` is the
median set-up time of those and the measuring worker.  A traced run
alternates traced and plain ops in one worker, which gives the tracing
overhead.  Op times are bounded in reference seconds, which take out the
host's speed drift; NOTES.md explains them and why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dirichlet-singular", "small-nets")
SETUP_PROBES = 4
DEADLINE_S = 170.0  # a run must end within 180 s, whatever its workers do
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "PYTHONHASHSEED": "0"}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

# Op times are bounded in reference seconds: the op's CPU time * REF_KERNEL_S
# / the CPU time of worker.reference_cpu_s measured beside the op.  CPU time
# leaves out what the hypervisor steals; the kernel takes out the host's
# speed drift (NOTES.md).
REF_KERNEL_S = 0.010
E2E_UNITS = {"ops_per_ref_s": "1/ref_s", "op_ref_s.p50": "ref_s", "setup_s": "s",
             "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _unit(metric: str) -> str:
    if metric.endswith(("_s", "s_per_iteration")):
        return "s"
    return "bytes" if metric.endswith("_bytes") else "count"


def _checkout_ok() -> bool:
    return (ROOT / "src" / "gennet" / "cli.py").is_file() \
        and (ROOT / "tests" / "_oracles.py").is_file()


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gennet").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _steal_s() -> float | None:
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _loadavg() -> list | None:
    try:
        return [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
    except (OSError, ValueError):
        return None


def _launch(workload: str, seed: int, seconds: float, trace: int, work: Path,
            deadline: float, setup_only: bool, spans: Path | None = None) -> dict:
    result = work / f"result-{time.monotonic_ns()}.json"
    env = {**os.environ, **PINNED}
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--work", str(work / "out"), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--launched", repr(time.monotonic())]
    try:
        # the worker's own output goes to stderr: stdout carries only results
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker timed out") from exc
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(result.read_text())


def _tail(op_s: list) -> dict | None:
    """Highest percentile with at least 10 samples beyond it (nearest rank)."""
    n = len(op_s)
    ordered = sorted(op_s)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return {"percentile": p, "value_s": ordered[rank - 1], "samples": n,
                    "beyond": n - rank}
    return None


def _notch(values: list) -> float:
    """Half-width of the median's notch, 1.57 IQR / sqrt(n) (McGill et al. 1978)."""
    q = statistics.quantiles(values, n=4)
    return 1.57 * (q[2] - q[0]) / math.sqrt(len(values))


def _tracing_overhead(res: dict, op_ref_s: list) -> dict:
    """Traced minus plain op time, from the ops of one traced run.

    Ops alternate traced, plain, traced, ...; each traced op is paired with
    the plain op after it, so the host's drift cancels.  The overhead is the
    median over pairs of traced minus plain.  The check: the self times of
    the spans below each traced op's root, minus the paired plain op time,
    must have a median within that overhead, give or take the notch of the
    paired differences.  It fails when the spans miss part of the op, or
    when tracing seems to make ops faster beyond the noise.
    """
    ops = list(zip(op_ref_s, res["op_s"]))
    # each traced op's span self times, in that op's reference seconds
    spans = [s * ref / wall for s, (ref, wall) in zip(res["spans_self_s"], ops[::2])]
    pairs = list(zip(ops[::2], ops[1::2], spans))
    over_ref = [t[0] - p[0] for t, p, _ in pairs]
    out = {
        "tracing_overhead_ref_s": statistics.median(over_ref),
        "tracing_overhead_s": statistics.median(t[1] - p[1] for t, p, _ in pairs),
        "spans_minus_plain_ref_s": statistics.median(s - p[0] for _, p, s in pairs),
        "pairs": len(pairs), "notch_ref_s": None, "self_times_add_up": None,
    }
    if len(pairs) >= 2:
        out["notch_ref_s"] = _notch(over_ref)
        out["self_times_add_up"] = abs(out["spans_minus_plain_ref_s"]) <= \
            max(out["tracing_overhead_ref_s"], 0.0) + out["notch_ref_s"]
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload once; return the result line plus its report and env."""
    work = HERE / ".work" / f"{workload}-{os.getpid()}"
    traces = HERE / ".traces"
    traces.mkdir(exist_ok=True)
    load0, steal0, t0 = _loadavg(), _steal_s(), time.monotonic()
    deadline = t0 + DEADLINE_S
    try:
        setups = [_launch(workload, seed, seconds, trace, work, deadline, True)["setup_s"]
                  for _ in range(0 if trace else SETUP_PROBES)]
        res = _launch(workload, seed, seconds, trace, work, deadline, False,
                      traces / f"{workload}.spans.csv" if trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    elapsed = time.monotonic() - t0
    steal1 = _steal_s()
    setups.append(res["setup_s"])

    op_s, op_cpu_s, ref_cpu_s = res["op_s"], res["op_cpu_s"], res["ref_cpu_s"]
    # each op's CPU time, scaled by the kernel runs just before and after it
    op_ref_s = [t * REF_KERNEL_S / (0.5 * (before + after))
                for t, before, after in zip(op_cpu_s, ref_cpu_s, ref_cpu_s[1:])]
    attempted, failed = len(op_s), res["failed"]
    extra = {}
    if trace:
        layers = res["layers"]
        metrics = {m: {"value": statistics.median(op[m] for op in layers), "unit": _unit(m)}
                   for m in layers[0]}
        extra = _tracing_overhead(res, op_ref_s)
    else:
        metrics = {
            "ops_per_ref_s": attempted / sum(op_ref_s),
            "op_ref_s.p50": statistics.median(op_ref_s),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {m: {"value": v, "unit": E2E_UNITS[m]} for m, v in metrics.items()}
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "ops": attempted, "fail_ratio": failed / attempted,
        "ops_per_s": attempted / sum(op_s), "op_s.p50": statistics.median(op_s),
        "op_s.tail": _tail(op_s), "op_s.min": min(op_s), "op_s.max": max(op_s),
        "op_cpu_s.p50": statistics.median(op_cpu_s),
        "ref_kernel_cpu_s.p50": statistics.median(ref_cpu_s),
        "setup_s.samples": setups, "errors": res["errors"],
        "unwrapped": res["unwrapped"], **extra,
    }
    env = {
        "commit": _commit(), "src_sha256": _source_digest(), **res["versions"],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "pinned": PINNED, "loadavg_start": load0, "loadavg_end": _loadavg(),
        "steal_s": None if steal0 is None or steal1 is None else steal1 - steal0,
        "run_wall_s": elapsed,
        "loop_cpu_over_wall": res["loop_cpu_s"] / res["loop_wall_s"],
    }
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    return {"line": line, "report": report, "env": env}


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced; print every metric with its unit.

    Exits 1 when an op failed or the span self times do not add up.
    """
    ok = True
    for workload in WORKLOADS:
        plain = run_workload(workload, seed, seconds, 0)
        traced = run_workload(workload, seed, seconds, 1)
        over = traced["report"]
        ok = ok and plain["line"]["correct"] and traced["line"]["correct"] \
            and over["self_times_add_up"] is not False
        rep = plain["report"]
        print(f"== {workload}: {rep['ops']} ops, fail_ratio {rep['fail_ratio']:g}, "
              f"correct {plain['line']['correct'] and traced['line']['correct']}")
        for name, m in plain["line"]["metrics"].items():
            print(f"  {name:<34} {_fmt(m['value']):>14} {m['unit']}")
        for name, unit in (("ops_per_s", "1/s"), ("op_s.p50", "s"), ("op_cpu_s.p50", "s"),
                           ("ref_kernel_cpu_s.p50", "s"), ("fail_ratio", "")):
            print(f"  {name:<34} {_fmt(rep[name]):>14} {unit}")
        tail = rep["op_s.tail"]
        print(f"  {'op_s.tail':<34} " + (
            f"{_fmt(tail['value_s']):>14} s  (p{tail['percentile']:g} of {tail['samples']} "
            f"ops, {tail['beyond']} beyond)" if tail else
            f"{'-':>14}    (under 11 ops beyond any percentile; {rep['ops']} ops)"))
        print(f"  {'tracing overhead (op_s.p50)':<34} {_fmt(over['tracing_overhead_s']):>14} s")
        print(f"  {'tracing overhead (op_ref_s.p50)':<34} "
              f"{_fmt(over['tracing_overhead_ref_s']):>14} ref_s  (over {over['pairs']} pairs; "
              f"span self times - plain op {_fmt(over['spans_minus_plain_ref_s'])}, "
              f"notch {_fmt(over['notch_ref_s'])}; adds up: {over['self_times_add_up']})")
        for name, m in traced["line"]["metrics"].items():
            print(f"  {name:<34} {_fmt(m['value']):>14} {m['unit']}")
        print(f"  env {json.dumps(plain['env'])}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload and print its result line (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not _checkout_ok():
        print(f"{ROOT} holds no gennet checkout (src/gennet, tests/_oracles.py)",
              file=sys.stderr)
        return 2
    try:
        if args.workload is None:
            return run_all(args.seed, args.seconds)
        res = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("env " + json.dumps(res["env"]))
    print("report " + json.dumps(res["report"]))
    print(json.dumps(res["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
