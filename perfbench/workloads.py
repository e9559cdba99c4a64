"""The benchmark's workloads: generated CLI inputs and the checks on each op.

A workload turns a seed into a fixed list of ``Step``s.  One op runs every
step's ``gennet.cli.main`` call in order (the timed part); afterwards each
step's ``check`` reads what the command wrote and returns the problems it
found.  Checks use the independent oracles in ``tests/_oracles.py`` and
closed forms, never the library's own routines.

Why each workload exists, and which layer metrics should move on it, is
recorded in NOTES.md beside this file.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from _oracles import solve_box_vi

K = 24  # the CLI's default grid size: eps_k = 2^-k, k = 1..K
EPS = 0.5 ** np.arange(1, K + 1)


@dataclass
class Step:
    """One CLI call: its argv, the exit code it must give, and its output check."""

    name: str
    argv: list
    expect_exit: int
    check: Callable[[Path], list]
    out: Path


def _write_config(work: Path, name: str, cfg: dict) -> str:
    path = work / f"{name}.json"
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


def _summary(out: Path, command: str) -> dict:
    return json.loads((out / f"{command}_summary.json").read_text())


def _csv_rows(path: Path) -> tuple[list, np.ndarray]:
    """Header and float rows of a CLI CSV table."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def _command_step(work: Path, name: str, command: str, cfg: dict, check,
                  expect_exit: int = 0, extra=()) -> Step:
    out = work / name
    argv = [command, "--config", _write_config(work, name, cfg), "--out", str(out), *extra]
    return Step(name, argv, expect_exit, check, out)


# ---------------------------------------------------------------------------
# dirichlet-singular
# ---------------------------------------------------------------------------

DIRICHLET_N = 1000


def dirichlet_singular(work: Path, seed: int) -> list:
    """The README / criterion-9 singular problem at n = 1000 (fixed; seed unused)."""
    cfg = {"problem": {
        "interval": [-1.0, 1.0], "n_elems": DIRICHLET_N,
        "diffusion": {"kind": "heaviside_nu", "nu_exponent": 1.0},
        "potential": {"kind": "mollified_measure", "masses": [[0.0, 1.0]]},
        "rhs": 1.0,
    }}

    def check(out: Path) -> list:
        s = _summary(out, "solve-dirichlet")
        errors = []
        cert = s["certificate"]
        if not cert["valid"] or cert["witness_exponent"] is None \
                or cert["witness_exponent"] > 2:
            errors.append(f"certificate {cert['valid']}, witness {cert['witness_exponent']}")
        if len(s["residual"]) != K or max(s["residual"]) > 1e-10:
            errors.append(f"residual {max(s['residual'])} > 1e-10")
        if not s["h1_valuation"] >= -1.1:
            errors.append(f"valuation {s['h1_valuation']} < -1.1")
        if not s["moderate"]:
            errors.append("H1 norm net not moderate")
        header, rows = _csv_rows(out / "solution.csv")
        if header != ["k", "eps", "node_index", "x", "u"] \
                or rows.shape != (K * (DIRICHLET_N + 1), 5):
            errors.append(f"solution.csv has shape {rows.shape}")
        elif not np.all(np.isfinite(rows)):
            errors.append("solution.csv has non-finite values")
        else:
            ends = rows[np.isin(rows[:, 2], (0, DIRICHLET_N)), 4]
            if np.any(ends != 0.0):
                errors.append("Dirichlet boundary values are not 0")
        return errors

    return [_command_step(work, "dirichlet", "solve-dirichlet", cfg, check)]


# ---------------------------------------------------------------------------
# small-nets
# ---------------------------------------------------------------------------

GS_M, GS_D = 12, 16


def small_nets(work: Path, seed: int) -> list:
    """One fixed batch of small commands; the seed picks exponents and generators."""
    rng = np.random.default_rng(seed % 2**63)
    steps = []

    # gennum-check: valuations of c * eps^a are exactly a
    exps = np.round(rng.uniform(-3.0, 3.0, 13), 3)
    coefs = np.round(rng.uniform(0.5, 3.0, 13) * rng.choice([-1.0, 1.0], 13), 3)
    nets = [{"kind": "power", "a": float(a), "c": float(c)} for a, c in zip(exps, coefs)]

    def check_gennum(out: Path) -> list:
        s = _summary(out, "gennum-check")
        errors = []
        for row, a in zip(s["results"], exps):
            if not abs(row["valuation"] - a) <= 1e-9:
                errors.append(f"net{row['net']}: valuation {row['valuation']} != {a}")
            if row["negligible"] or not row["moderate"]:
                errors.append(f"net{row['net']}: wrong negligible/moderate verdict")
        if len(s["results"]) != len(exps):
            errors.append(f"{len(s['results'])} results for {len(exps)} nets")
        _, rows = _csv_rows(out / "nets.csv")
        want = coefs[None, :] * EPS[:, None] ** exps[None, :]
        if rows.shape != (K, 2 + len(exps)) or not np.allclose(rows[:, 2:], want,
                                                                rtol=1e-12, atol=0.0):
            errors.append("nets.csv samples differ from c * eps^a")
        return errors

    steps.append(_command_step(work, "nets", "gennum-check", {"nets": nets}, check_gennum))

    # classify-op: a rotation net is unitary with norm 1; diag(eps^p) is
    # self-adjoint with norm eps^min(p)
    theta_power = float(np.round(rng.uniform(0.25, 1.0), 3))
    powers = np.round(rng.uniform(0.0, 3.0, 4), 3)

    def check_flags(flag: str, norms: np.ndarray):
        def check(out: Path) -> list:
            s = _summary(out, "classify-op")
            errors = [] if s["flags"][flag] else [f"operator not {flag}"]
            _, rows = _csv_rows(out / "opnorm.csv")
            if rows.shape != (K, 3) or not np.allclose(rows[:, 2], norms, rtol=1e-12,
                                                       atol=0.0):
                errors.append("opnorm.csv differs from the closed-form norms")
            return errors
        return check

    steps.append(_command_step(
        work, "rotation", "classify-op",
        {"operator": {"kind": "rotation", "theta_power": theta_power}},
        check_flags("unitary", np.ones(K))))
    steps.append(_command_step(
        work, "diag", "classify-op",
        {"operator": {"kind": "diag_powers", "powers": powers.tolist()}},
        check_flags("self_adjoint", EPS ** powers.min())))

    # gram-schmidt: seeded generators eps^p * v with mixed p are closed
    # and edged; a power tower (norm eps_k^k) has no uniform scale
    gs_powers = rng.integers(0, 4, GS_M).tolist()
    gs_seed = int(rng.integers(0, 2**31))

    def check_basis(out: Path) -> list:
        s = _summary(out, "gram-schmidt")
        if not s["closed_edged"]:
            return ["random generators not closed_edged"]
        _, rows = _csv_rows(out / "basis.csv")
        vecs = rows[:, 2:].reshape(K, -1, GS_D)
        gram = np.einsum("kid,kjd->kij", vecs, vecs)
        diag = np.einsum("kii->ki", gram)
        off = gram - np.einsum("ki,ij->kij", diag, np.eye(gram.shape[1]))
        errors = []
        if vecs.shape[1] != len(s["supports"]) or vecs.shape[1] > GS_D:
            errors.append(f"{vecs.shape[1]} basis vectors for {len(s['supports'])} supports")
        if np.max(np.abs(off), initial=0.0) > 1e-10:
            errors.append("basis vectors are not orthogonal")
        if np.any(np.minimum(np.abs(diag), np.abs(diag - 1.0)) > 1e-10):
            errors.append("basis norms are neither 0 nor 1")
        return errors

    steps.append(_command_step(
        work, "gs_random", "gram-schmidt",
        {"random": {"m": GS_M, "d": GS_D, "powers": gs_powers}}, check_basis,
        extra=("--seed", str(gs_seed))))

    tower = rng.standard_normal(3).tolist()

    def check_tower(out: Path) -> list:
        s = _summary(out, "gram-schmidt")
        if s["closed_edged"] or not s["diagnostics"].get("offending_indices"):
            return ["power tower not rejected as MixedScaleGenerator"]
        return []

    steps.append(_command_step(
        work, "gs_tower", "gram-schmidt",
        {"generators": [{"kind": "power_tower", "vector": tower}]}, check_tower,
        expect_exit=2))

    # vi-solve: a symmetric 3x3 operator on a box and a nonsymmetric 2x2
    # operator on an obstacle cone, both against active-set enumeration.
    # Each right-hand side comes from a solution with a known active set
    # (lower bound, free, upper bound).  These two problems do not follow
    # the seed: the contraction's iteration count moves with the operator's
    # orientation (15 to 108 sweeps over seeds), which would make the
    # batch's cost, and so the run-to-run spread, depend on the seed.
    fixed = np.random.default_rng(0)
    q, r = np.linalg.qr(fixed.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    sym = q @ np.diag([1.0, 2.5, 4.0]) @ q.T
    box_lo = fixed.uniform(-1.0, 0.0, 3)
    box_up = box_lo + fixed.uniform(0.5, 2.0, 3)
    box_u = np.array([box_lo[0], 0.5 * (box_lo[1] + box_up[1]), box_up[2]])
    box_rhs = sym @ box_u - np.array([1.0, 0.0, -1.0]) * fixed.uniform(0.5, 2.0, 3)
    angle = fixed.uniform(0.0, 2.0 * np.pi)
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    nonsym = rot @ np.diag([1.0, 2.0]) @ rot.T + np.array([[0.0, 0.5], [-0.5, 0.0]])
    cone_lo = fixed.uniform(-1.0, 0.0, 2)
    cone_u = cone_lo + np.array([0.0, fixed.uniform(0.5, 1.5)])
    cone_rhs = nonsym @ cone_u - np.array([fixed.uniform(0.5, 2.0), 0.0])

    def check_vi(mat, rhs, lower, upper):
        ref = solve_box_vi(mat, rhs, lower, upper)

        def check(out: Path) -> list:
            s = _summary(out, "vi-solve")
            errors = [] if s["verdicts"]["coercive"] else ["operator not certified coercive"]
            _, rows = _csv_rows(out / "solution.csv")
            gap = np.max(np.abs(rows[:, 2:] - ref[None, :])) if rows.shape == (
                K, 2 + ref.size) else math.inf
            if not gap <= 1e-8:
                errors.append(f"solution differs from active-set enumeration by {gap}")
            return errors
        return check

    steps.append(_command_step(
        work, "vi_box", "vi-solve",
        {"operator": {"kind": "constant", "matrix": sym.tolist()}, "rhs": box_rhs.tolist(),
         "set": {"kind": "box", "lower": box_lo.tolist(), "upper": box_up.tolist()}},
        check_vi(sym, box_rhs, box_lo, box_up)))
    steps.append(_command_step(
        work, "vi_cone", "vi-solve",
        {"operator": {"kind": "constant", "matrix": nonsym.tolist()},
         "rhs": cone_rhs.tolist(), "set": {"kind": "obstacle", "lower": cone_lo.tolist()}},
        check_vi(nonsym, cone_rhs, cone_lo, np.full(2, np.inf))))

    # report over the summaries of the commands whose verdicts pass
    summaries = [str(st.out / f"{st.argv[0]}_summary.json")
                 for st in steps if st.expect_exit == 0]

    def check_report(out: Path) -> list:
        data = json.loads((out / "report.json").read_text())
        if not data["all_ok"] or len(data["reports"]) != len(summaries):
            return [f"report all_ok={data['all_ok']} over {len(data['reports'])} summaries"]
        return []

    out = work / "report"
    steps.append(Step("report", ["report", *summaries, "--out", str(out)], 0,
                      check_report, out))
    return steps


WORKLOADS = {
    "dirichlet-singular": dirichlet_singular,
    "small-nets": small_nets,
}
