"""End-to-end command-line runs: exit codes, CSV layout, determinism."""

import ast
import json
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from _oracles import band_eig_bounds, orthonormality_failures, solve_box_vi
from gennet import EpsGrid
from gennet.cli import _problem, _write_json, main
from gennet.fem import _assemble_all
from gennet.variational import _MAX_SWEEPS, RESIDUAL_TARGET

K_DEFAULT = 24
# test configs are written by json.dumps, as the tokens NaN and Infinity,
# which the config reader accepts; summaries are strict JSON
NAN, INF = float("nan"), float("inf")
SRC = Path(__file__).resolve().parent.parent / "src"


def _write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _run(args):
    return main(list(args))


def _summary(out_dir, command):
    with open(out_dir / f"{command}_summary.json") as fh:
        return json.load(fh)


@pytest.fixture
def gennum_cfg(tmp_path):
    return _write_config(tmp_path, "gennum.json", {
        "nets": [
            {"kind": "power", "a": -3.0},
            {"kind": "power", "a": 2.5, "c": 2.0},
            {"kind": "constant", "value": 5.0},
        ],
    })


# ------------------------------------------------------------ happy paths

def test_gennum_check_writes_table_and_summary(tmp_path, gennum_cfg):
    out = tmp_path / "out"
    assert _run(["gennum-check", "--config", gennum_cfg, "--out", str(out)]) == 0
    lines = (out / "nets.csv").read_text().splitlines()
    assert lines[0] == "k,eps,net0,net1,net2"
    assert len(lines) == 1 + K_DEFAULT
    s = _summary(out, "gennum-check")
    assert set(s) >= {"command", "results", "valuations", "verdicts", "timings"}
    assert abs(s["valuations"]["net0"] + 3.0) <= 1e-9
    assert abs(s["valuations"]["net1"] - 2.5) <= 1e-9
    assert s["results"][2]["moderate"] and not s["results"][2]["negligible"]
    assert "total_s" in s["timings"]


def test_grid_k_override(tmp_path, gennum_cfg):
    out = tmp_path / "out"
    assert _run(["gennum-check", "--config", gennum_cfg, "--out", str(out),
                 "--grid-K", "12"]) == 0
    assert len((out / "nets.csv").read_text().splitlines()) == 13


def test_classify_op_rotation_and_projection(tmp_path):
    cfg = _write_config(tmp_path, "rot.json",
                        {"operator": {"kind": "rotation", "theta_power": 1.0}})
    out = tmp_path / "rot_out"
    assert _run(["classify-op", "--config", cfg, "--out", str(out)]) == 0
    s = _summary(out, "classify-op")
    assert s["flags"] == {"isometric": True, "unitary": True,
                          "self_adjoint": False, "projection": False}
    assert abs(s["valuations"]["op_norm"]) <= 1e-9
    assert len((out / "opnorm.csv").read_text().splitlines()) == 1 + K_DEFAULT

    cfg = _write_config(tmp_path, "proj.json", {
        "operator": {"kind": "idempotent_diag",
                     "members": list(range(1, K_DEFAULT + 1)), "dim": 3},
    })
    out = tmp_path / "proj_out"
    assert _run(["classify-op", "--config", cfg, "--out", str(out)]) == 0
    assert _summary(out, "classify-op")["flags"]["projection"]


def test_vi_solve_pins_the_first_coordinate(tmp_path):
    cfg = _write_config(tmp_path, "vi.json", {
        "operator": {"kind": "constant", "matrix": [[2.0, 1.0], [-1.0, 2.0]]},
        "rhs": [-2.0, 4.0],
        "set": {"kind": "obstacle", "lower": [0.0, 0.0]},
    })
    out = tmp_path / "vi_out"
    assert _run(["vi-solve", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "solution.csv").read_text().splitlines()
    assert lines[0] == "k,eps,u0,u1"
    assert len(lines) == 1 + K_DEFAULT
    last = [float(c) for c in lines[-1].split(",")]
    assert abs(last[2]) <= 1e-8 and abs(last[3] - 2.0) <= 1e-8
    iters = (out / "iterations.csv").read_text().splitlines()
    assert iters[0] == "k,eps,alpha,M,rho,contraction_k,iterations,residual"
    assert len(iters) == 1 + K_DEFAULT
    assert iters[1].split(",")[0] == "1"
    assert iters[-1].split(",")[0] == str(K_DEFAULT)
    s = _summary(out, "vi-solve")
    assert s["verdicts"] == {"coercive": True}
    assert s["certificate"]["valid"]
    assert s["max_residual"] <= 1e-10
    assert "solve_s" in s["timings"]
    # sweeps computed, overshoot of each point's last block included
    swept = sum(int(row.split(",")[6]) for row in iters[1:])
    assert swept <= s["timings"]["sweeps"] <= swept + 15 * K_DEFAULT
    assert 1 <= s["timings"]["stop_checks"] <= s["max_iterations"]


_OPEN_BOX = {"kind": "box", "lower": [-INF, -INF], "upper": [INF, INF]}


def test_vi_solve_takes_step_norms_past_the_squares_float_range(tmp_path):
    # the first step's squares overflow; an overflowed step and scale would
    # pass the floor test inf <= inf after one sweep, at u = (5e199, 0)
    T, rhs = [[2.0, 1.0], [1.0, 2.0]], [1e200, 0.0]
    cfg = _write_config(tmp_path, "vi.json", {
        "operator": {"kind": "constant", "matrix": T}, "rhs": rhs, "set": _OPEN_BOX})
    out = tmp_path / "out"
    assert _run(["vi-solve", "--config", cfg, "--out", str(out)]) == 0
    u = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)[:, 2:]
    want = solve_box_vi(T, rhs, [-INF, -INF], [INF, INF])
    assert np.max(np.abs(u - want)) <= 1e-12 * np.max(np.abs(want))
    assert _summary(out, "vi-solve")["max_residual"] < np.inf


def test_vi_solve_takes_the_general_step_on_a_large_nonsymmetric_operator(tmp_path):
    # T - T* = 1e13 [[0, 1], [-1, 0]] is far above rounding on |T| = 1e13; read
    # as self-adjoint, the step 2/(alpha + M) breaks the contraction bound
    T, rhs = [[1e13, 5e12], [-5e12, 1e13]], [1e13, 0.0]
    cfg = _write_config(tmp_path, "vi.json", {
        "operator": {"kind": "constant", "matrix": T}, "rhs": rhs, "set": _OPEN_BOX})
    out = tmp_path / "out"
    assert _run(["vi-solve", "--config", cfg, "--out", str(out)]) == 0
    u = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)[:, 2:]
    want = solve_box_vi(T, rhs, [-INF, -INF], [INF, INF])
    assert np.max(np.abs(u - want)) <= 1e-8 * np.max(np.abs(want))


def test_an_infinite_rhs_never_stops_at_the_step_floor(tmp_path, capsys):
    # on {u >= 0} the first sweep gives u = (inf, 0), whose step inf passed the
    # floor 4 eps_mach (1 + |u|) = inf: exit 0 with u = inf.  The floor never
    # passes once 1 + |u| overflows, and the NaN iterates that follow run out
    # of budget.  On the box [0, 1]^2, inf clips to 1 and u = (1, 0).
    def run(name, cfg_set):
        cfg = _write_config(tmp_path, f"{name}.json", {
            "operator": {"kind": "constant", "matrix": [[2.0, 1.0], [1.0, 2.0]]},
            "rhs": [INF, 0.0], "set": cfg_set})
        rc = _run(["vi-solve", "--config", cfg, "--out", str(tmp_path / name)])
        return rc, capsys.readouterr().err

    rc, err = run("obstacle", {"kind": "obstacle", "lower": [0.0, 0.0]})
    assert rc == 2 and re.fullmatch(r"verdict failure: IterationBudgetExceeded: iterations_k > "
                                    r"budget_k: budget = \d+, step_norm = nan at grid index k=1\n",
                                    err)
    assert list((tmp_path / "obstacle").iterdir()) == []
    assert run("box", {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]}) == (0, "")
    eps = [repr(e) for e in (0.5 ** np.arange(1, K_DEFAULT + 1)).tolist()]
    assert (tmp_path / "box" / "solution.csv").read_text() == "k,eps,u0,u1\n" + "".join(
        f"{k},{e},1.0,0.0\n" for k, e in enumerate(eps, 1))
    assert (tmp_path / "box" / "iterations.csv").read_text().splitlines()[1:] == [
        f"{k},{e},1.0,2.9999999999999996,0.5000000000000001,0.49999999999999994,2,0.0"
        for k, e in enumerate(eps, 1)]


def test_vi_solve_reports_the_norms_of_huge_answers(tmp_path):
    # u = (1e200, 1e200) in one sweep: residual 0 and |u| constant, valuation 0
    cfg = _write_config(tmp_path, "vi.json", {
        "operator": {"kind": "constant", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
        "rhs": [1e200, 1e200], "set": _OPEN_BOX})
    out = tmp_path / "out"
    assert _run(["vi-solve", "--config", cfg, "--out", str(out)]) == 0
    s = _summary(out, "vi-solve")
    assert s["max_residual"] == 0.0 and s["valuations"]["u_norm"] == 0.0


def test_solve_dirichlet_cli_and_parallel_determinism(tmp_path):
    cfg = _write_config(tmp_path, "dirichlet.json", {
        "problem": {"interval": [0.0, 1.0], "n_elems": 16,
                    "diffusion": 1.0, "rhs": 1.0},
    })
    serial = tmp_path / "serial"
    assert _run(["solve-dirichlet", "--config", cfg, "--out", str(serial)]) == 0
    lines = (serial / "solution.csv").read_text().splitlines()
    assert lines[0] == "k,eps,node_index,x,u"
    assert len(lines) == 1 + K_DEFAULT * 17
    s = _summary(serial, "solve-dirichlet")
    assert s["verdicts"] == {"coercive": True, "residual_ok": True, "moderate": True}

    again = tmp_path / "again"
    assert _run(["solve-dirichlet", "--config", cfg, "--out", str(again)]) == 0
    assert (serial / "solution.csv").read_bytes() == (again / "solution.csv").read_bytes()


def test_solve_obstacle_cli(tmp_path):
    cfg = _write_config(tmp_path, "obstacle.json", {
        "problem": {"interval": [0.0, 1.0], "n_elems": 32,
                    "diffusion": 1.0, "rhs": -8.0, "obstacle": -0.75},
    })
    out = tmp_path / "out"
    assert _run(["solve-obstacle", "--config", cfg, "--out", str(out)]) == 0
    s = _summary(out, "solve-obstacle")
    assert s["verdicts"] == {"coercive": True, "complementarity_ok": True}
    assert s["complementarity_max"] <= 1e-8
    assert len((out / "iterations.csv").read_text().splitlines()) == 1 + K_DEFAULT
    assert "h1_norm" in s["valuations"]


@pytest.mark.parametrize("n_elems,steps", [(32, 13), (64, 24)])
def test_solve_obstacle_cli_on_vanishing_diffusion(tmp_path, n_elems, steps):
    # diffusion eps^0.5 left of 0.4 under a tent-shaped obstacle: the
    # contact set moves with eps, and every sample still meets the check
    cfg = _write_config(tmp_path, "obstacle.json", {
        "problem": {"interval": [0.0, 1.0], "n_elems": n_elems,
                    "diffusion": {"kind": "heaviside_nu", "nu_exponent": 0.5,
                                  "jump_at": 0.4, "high": 1.0},
                    "rhs": -8.0,
                    "obstacle": {"kind": "tabulated", "xs": [0.0, 0.5, 1.0],
                                 "values": [-1.0, -0.6, -1.0]}},
    })
    out = tmp_path / "out"
    assert _run(["solve-obstacle", "--config", cfg, "--out", str(out)]) == 0
    s = _summary(out, "solve-obstacle")
    assert s["verdicts"] == {"coercive": True, "complementarity_ok": True}
    assert max(s["steps"]) == steps and len(s["error_bound"]) == K_DEFAULT
    lines = (out / "iterations.csv").read_text().splitlines()
    assert lines[0] == "k,eps,alpha,steps,contact_nodes,error_bound"
    assert len(lines) == 1 + K_DEFAULT


# ------------------------------------------------------------ determinism

def test_repeat_runs_are_byte_identical(tmp_path, gennum_cfg):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run(["gennum-check", "--config", gennum_cfg, "--out", str(a)]) == 0
    assert _run(["gennum-check", "--config", gennum_cfg, "--out", str(b)]) == 0
    assert (a / "nets.csv").read_bytes() == (b / "nets.csv").read_bytes()


def test_seed_controls_random_generators(tmp_path):
    cfg = _write_config(tmp_path, "gs.json",
                        {"random": {"m": 3, "d": 5, "powers": [0, 2, 0]}})
    outs = {}
    for name, seed in (("s0", "0"), ("s0_again", "0"), ("s1", "1")):
        out = tmp_path / name
        assert _run(["gram-schmidt", "--config", cfg, "--out", str(out),
                     "--seed", seed]) == 0
        outs[name] = (out / "basis.csv").read_bytes()
    assert outs["s0"] == outs["s0_again"]
    assert outs["s0"] != outs["s1"]
    s = _summary(tmp_path / "s0", "gram-schmidt")
    assert s["closed_edged"] and s["verdicts"] == {"closed_edged": True}
    assert len(s["supports"]) == 3
    assert all(abs(v) <= 1e-9 for v in s["valuations"].values())
    timings = s["timings"]
    assert set(timings) == {"gram_schmidt_s", "csv_s", "total_s"}
    assert 0.0 <= timings["gram_schmidt_s"] + timings["csv_s"] <= timings["total_s"]


@pytest.mark.parametrize("generators", [
    # eps_24**-22 = 2**528: the first generator's squares overflow at k = 24
    [{"kind": "power_scaled", "vector": [1, 2, 0.5], "power": -22},
     {"kind": "power_scaled", "vector": [0, 1, 1], "power": 0}],
    # a norm past the float range at every k
    [{"kind": "constant", "vector": [1e308, 1e308, 0]},
     {"kind": "power_scaled", "vector": [1, 0, 1], "power": 2}],
], ids=["squares-overflow", "norm-overflows"])
def test_gram_schmidt_orthonormalizes_generators_whose_squares_overflow(tmp_path, generators):
    cfg = _write_config(tmp_path, "big.json", {"generators": generators})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(["gram-schmidt", "--config", cfg, "--out", str(out)]) == 0
    s = _summary(out, "gram-schmidt")
    assert s["supports"] == [list(range(1, K_DEFAULT + 1))] * 2
    rows = np.loadtxt(out / "basis.csv", delimiter=",", skiprows=1, ndmin=2)
    W = rows[:, 2:].reshape(K_DEFAULT, 2, 3)
    assert orthonormality_failures(W, np.ones((K_DEFAULT, 2), dtype=bool), 1e-12) == []


# ------------------------------------------------------- command protocol

_PROTOCOL_CASES = {
    "gennum-check": {"nets": [{"kind": "power", "a": 1.0}]},
    "classify-op": {"operator": {"kind": "rotation"}},
    "gram-schmidt": {"generators": [{"kind": "constant", "vector": [1.0, 0.0]}]},
    "gram-schmidt-tower": {"generators": [{"kind": "power_tower", "vector": [1.0, 0.0]}]},
    "vi-solve": {"operator": {"kind": "constant", "matrix": [[2.0]]}, "rhs": [1.0],
                 "set": {"kind": "box", "lower": [0.0], "upper": [1.0]}},
    "solve-dirichlet": {"problem": {"interval": [0.0, 1.0], "n_elems": 8,
                                    "diffusion": 1.0, "rhs": 1.0}},
    "solve-obstacle": {"problem": {"interval": [0.0, 1.0], "n_elems": 8,
                                   "diffusion": 1.0, "rhs": -8.0, "obstacle": -0.75}},
}


@pytest.mark.parametrize("case", sorted(_PROTOCOL_CASES))
def test_every_config_command_keeps_the_summary_protocol(tmp_path, case):
    command = case.removesuffix("-tower")
    path = _write_config(tmp_path, "cfg.json", _PROTOCOL_CASES[case])
    rc = _run([command, "--config", path, "--out", str(tmp_path / "out")])
    s = _summary(tmp_path / "out", command)
    assert s["command"] == command
    assert isinstance(s["verdicts"], dict)
    timings = s["timings"]
    # times (named *_s) lie within the whole command; the rest are counts
    assert all(0.0 <= t <= timings["total_s"] if name.endswith("_s")
               else isinstance(t, int) and t >= 0 for name, t in timings.items())
    assert rc == (0 if all(s["verdicts"].values()) else 2)
    assert (rc == 2) == (case == "gram-schmidt-tower")


# ---------------------------------------------------------- verdict exits

def test_mixed_scale_generator_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, "beta.json", {
        "generators": [{"kind": "power_tower", "vector": [1.0, 0.0]}],
    })
    out = tmp_path / "out"
    assert _run(["gram-schmidt", "--config", cfg, "--out", str(out)]) == 2
    lines = (out / "basis.csv").read_text().splitlines()
    assert lines[0] == "k,eps"
    assert len(lines) == 1 + K_DEFAULT
    s = _summary(out, "gram-schmidt")
    assert not s["closed_edged"]
    assert s["supports"] is None
    assert s["diagnostics"]["offending_indices"] == list(range(1, 11))
    assert "FAILED" in capsys.readouterr().out


def test_a_tail_sample_between_the_scales_exits_2(tmp_path):
    # eps_k e1, but sample 23 is eps_23**11 (0.6, 0.8): under q_neg = 12 it
    # is neither invertible (>= eps**10) nor negligible (<= eps**12); the
    # sweep drops it there, and the norm it left with names it
    eps = 0.5 ** np.arange(1.0, K_DEFAULT + 1)
    values = eps[:, None] * np.array([1.0, 0.0])
    values[22] = eps[22] ** 11 * np.array([0.6, 0.8])
    cfg = _write_config(tmp_path, "gap.json", {
        "policy": {"q_neg": 12},
        "generators": [{"kind": "samples", "values": values.tolist()}]})
    out = tmp_path / "out"
    assert _run(["gram-schmidt", "--config", cfg, "--out", str(out)]) == 2
    s = _summary(out, "gram-schmidt")
    assert not s["closed_edged"]
    assert s["diagnostics"]["offending_indices"] == [23]


def test_a_power_tower_of_a_huge_vector_has_no_uniform_scale(tmp_path):
    # the vector's squares overflow; its unit vector is not 0, which would
    # make every generator sample zero and the set closed and edged
    cfg = _write_config(tmp_path, "beta.json", {
        "generators": [{"kind": "power_tower", "vector": [1e200, 1e200, 1.0]}]})
    out = tmp_path / "out"
    assert _run(["gram-schmidt", "--config", cfg, "--out", str(out)]) == 2
    assert not _summary(out, "gram-schmidt")["closed_edged"]


def test_classify_op_refuses_overflowed_defects(tmp_path):
    cfg = _write_config(tmp_path, "diag.json",
                        {"operator": {"kind": "constant", "matrix": [[1e200, 0.0], [0.0, 1.0]]}})
    out = tmp_path / "out"
    assert _run(["classify-op", "--config", cfg, "--out", str(out)]) == 0
    assert _summary(out, "classify-op")["flags"] == {
        "isometric": False, "unitary": False, "self_adjoint": True, "projection": False}


def test_noncoercive_operator_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, "skew.json", {
        "operator": {"kind": "constant", "matrix": [[0.0, 1.0], [-1.0, 0.0]]},
        "rhs": [1.0, 1.0],
        "set": {"kind": "obstacle", "lower": [0.0, 0.0]},
    })
    assert _run(["vi-solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "CoercivityFailure" in capsys.readouterr().err


def test_noncoercive_vi_solve_names_its_grid_point_and_writes_no_summary(tmp_path, capsys):
    cfg = _write_config(tmp_path, "indefinite.json", {
        "operator": {"kind": "constant", "matrix": [[1.0, 0.0], [0.0, -1.0]]},
        "rhs": [1.0, 1.0],
        "set": {"kind": "obstacle", "lower": [0.0, 0.0]},
    })
    out = tmp_path / "o"
    assert _run(["vi-solve", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "verdict failure: CoercivityFailure: alpha_k < -eps_k^q_neg: alpha = -1 "
        "at grid index k=17\n")
    assert list(out.iterdir()) == []


def test_a_zero_alpha_fails_the_tail_rule_on_a_grid_whose_thresholds_underflow(
        tmp_path, capsys):
    # diag(1, 0) has alpha_k = 0; on K = 200, eps_k**m_inv is 0 on the tail
    # and 0 >= 0 would hold, but 0 is not invertible: the first tail point fails
    cfg = _write_config(tmp_path, "semidefinite.json", {
        "operator": {"kind": "constant", "matrix": [[1.0, 0.0], [0.0, 0.0]]},
        "rhs": [1.0, 1.0],
        "set": {"kind": "obstacle", "lower": [0.0, 0.0]},
    })
    assert _run(["vi-solve", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--grid-K", "200"]) == 2
    assert capsys.readouterr().err == (
        "verdict failure: CoercivityFailure: |alpha_k| < eps_k^m_inv: alpha = 0 "
        "at grid index k=193\n")


@pytest.mark.parametrize("power,k,ratio", [(3, 18, "5.55112e-17"), (5, 11, "2.77556e-17"),
                                           (8, 7, "1.38778e-17")])
def test_a_contraction_factor_that_rounds_to_1_is_a_verdict_failure(tmp_path, capsys, power,
                                                                    k, ratio):
    # alpha_k = eps_k^power is a valid certificate, but (M - alpha)/(M + alpha)
    # rounds to 1 at k: once a ZeroDivisionError traceback, exit 1
    cfg = _write_config(tmp_path, "flat.json", {
        "operator": {"kind": "diag_powers", "powers": [power, 0]},
        "rhs": [1, 1],
        "set": {"kind": "box", "lower": [0, 0], "upper": [1, 1]},
    })
    assert _run(["vi-solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"verdict failure: NoConvergence: contraction_k rounds to 1: alpha_over_M = {ratio} "
        f"at grid index k={k}\n")


def test_a_contraction_factor_just_below_1_runs_out_of_its_capped_budget(tmp_path, capsys):
    # T_k = [[eps_k^2, 1], [-1, eps_k^2]] on 13 grid points: no factor rounds to
    # 1, but the certified budgets reach 9.1e13 sweeps at k = 10 and 3.7e17 at
    # k = 13, which once kept the solve running for good
    eps = 0.5 ** np.arange(1, 14)
    cfg = _write_config(tmp_path, "rotation.json", {
        "grid": {"K": 13},
        "operator": {"kind": "samples",
                     "matrices": [[[e * e, 1.0], [-1.0, e * e]] for e in eps]},
        "rhs": [1.0, 1.0],
        "set": {"kind": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
    })
    start = time.perf_counter()
    assert _run(["vi-solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert time.perf_counter() - start < 15.0
    assert re.fullmatch(r"verdict failure: IterationBudgetExceeded: iterations_k > budget_k: "
                        rf"budget = {_MAX_SWEEPS}, step_norm = [0-9.e+-]+ at grid index k=4\n",
                        capsys.readouterr().err)


@pytest.mark.parametrize("command,obstacle", [("solve-dirichlet", None),
                                              ("solve-obstacle", -1.0)])
def test_a_nan_diffusion_fails_coercivity_at_its_grid_point(tmp_path, capsys, command,
                                                             obstacle):
    # np.interp between Infinity and -Infinity gives NaN diffusion at k = 1
    problem = {"interval": [0.0, 1.0], "n_elems": 8, "rhs": 1.0,
               "diffusion": {"kind": "tabulated", "xs": [0.0, 1.0],
                             "values": [[float("inf"), float("-inf")]] + [[1.0, 1.0]] * 23}}
    if obstacle is not None:
        problem["obstacle"] = obstacle
    cfg = _write_config(tmp_path, "nan.json", {"problem": problem})
    out = tmp_path / "o"
    assert _run([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "verdict failure: CoercivityFailure: diffusion_k <= 0 at grid index k=1\n")
    assert not out.exists() or list(out.iterdir()) == []


def test_a_valid_certificate_admits_an_indefinite_sample_before_the_tail(tmp_path):
    # a potential of -1000 at k = 1 alone: alpha_1 = -19.80 and
    # lambda_min(T_1) = -19.79, yet the certificate reads only the tail and
    # is valid, and ?gtsv solves k = 1; a band kernel for positive definite
    # samples (?pttrf) would fail there
    problem = {"interval": [0.0, 1.0], "n_elems": 50, "diffusion": 1.0, "rhs": 1.0,
               "potential": {"kind": "tabulated", "xs": [0.0, 1.0],
                             "values": [[-1000.0, -1000.0]] + [[1.0, 1.0]] * 23}}
    cfg = _write_config(tmp_path, "indefinite.json", {"problem": problem})
    out = tmp_path / "out"
    assert _run(["solve-dirichlet", "--config", cfg, "--out", str(out)]) == 0
    s = _summary(out, "solve-dirichlet")
    assert s["certificate"]["valid"] and s["certificate"]["alpha"][0] < -19.0
    assert s["residual"][0] <= 1e-10
    T = _assemble_all(_problem({"problem": problem}, EpsGrid.geometric(K_DEFAULT)))[0]
    assert band_eig_bounds(T.samples)[0][0] < -19.0


@pytest.mark.parametrize("command,obstacle", [("solve-dirichlet", None),
                                              ("solve-obstacle", -1.0)])
@pytest.mark.parametrize("change,check", [
    ({"rhs": {"kind": "mollified_measure", "masses": [], "density": INF}}, "rhs_k"),
    ({"rhs": {"kind": "tabulated", "xs": [0.0, 1.0],
              "values": [[INF, -INF]] + [[1.0, 1.0]] * 23}}, "rhs_k"),
    ({"boundary": [INF, 0.0]}, "boundary_k"),
    ({"point_loads": [[0.5, INF]]}, "point_load_k"),
], ids=["density", "tabulated", "boundary", "point-load"])
def test_a_non_finite_load_is_refused_at_its_grid_point(tmp_path, capsys, command, obstacle,
                                                        change, check):
    # each used to reach the solve and end as "relative residual nan"
    problem = {"interval": [0.0, 1.0], "n_elems": 8, "diffusion": 1.0, "rhs": 1.0, **change}
    if obstacle is not None:
        problem["obstacle"] = obstacle
    cfg = _write_config(tmp_path, "inf.json", {"problem": problem})
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run([command, "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"config error: {check} not finite: ±inf or NaN at grid index k=1\n")
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("grid,args,message", [
    ({"K": 2000}, [], "config error: /grid/K: K must lie in [8, 1074] for base 0.5, got 2000"),
    ({"K": 4}, [], "config error: /grid/K: K must lie in [8, 1074] for base 0.5, got 4"),
    ({"K": 30}, ["--grid-K", "2000"],
     "usage error: argument --grid-K: K must lie in [8, 1074] for base 0.5, got 2000"),
    ({"base": 0.25}, ["--grid-K", "600"],
     "usage error: argument --grid-K: K must lie in [8, 537] for base 0.25, got 600"),
], ids=["config-too-long", "config-too-short", "option-too-long", "option-base-0.25"])
def test_grid_sizes_are_refused_naming_their_source_and_bound(tmp_path, capsys, grid, args,
                                                              message):
    cfg = _write_config(tmp_path, "grid.json", {"nets": [1.0], "grid": grid})
    assert _run(["gennum-check", "--config", cfg, "--out", str(tmp_path / "o"), *args]) == 1
    assert capsys.readouterr().err == f"{message}\n"


def test_a_base_near_1_keeps_its_default_grid(tmp_path):
    # the bound of such a base is found in a window of at most 2**20 powers
    cfg = _write_config(tmp_path, "grid.json", {"nets": [1.0], "grid": {"base": 0.9999999}})
    out = tmp_path / "o"
    assert _run(["gennum-check", "--config", cfg, "--out", str(out)]) == 0
    assert len((out / "nets.csv").read_text().splitlines()) == 1 + 24


# -------------------------------------------------------------- reporting

def test_report_merges_and_propagates_failures(tmp_path, gennum_cfg):
    ok_out = tmp_path / "ok"
    assert _run(["gennum-check", "--config", gennum_cfg, "--out", str(ok_out)]) == 0
    ok_summary = str(ok_out / "gennum-check_summary.json")

    merged = tmp_path / "merged"
    assert _run(["report", ok_summary, "--out", str(merged)]) == 0
    blob = json.loads((merged / "report.json").read_text())
    assert blob["all_ok"] and len(blob["reports"]) == 1

    beta_cfg = _write_config(tmp_path, "beta.json", {
        "generators": [{"kind": "power_tower", "vector": [1.0, 0.0]}],
    })
    bad_out = tmp_path / "bad"
    assert _run(["gram-schmidt", "--config", beta_cfg, "--out", str(bad_out)]) == 2
    bad_summary = str(bad_out / "gram-schmidt_summary.json")
    assert _run(["report", ok_summary, bad_summary]) == 2


def test_report_rejects_malformed_summaries(tmp_path, capsys):
    junk = tmp_path / "junk.json"
    junk.write_text('{"x": 1}')
    assert _run(["report", str(junk)]) == 1
    assert "config error" in capsys.readouterr().err
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert _run(["report", str(broken)]) == 1
    for i, text in enumerate(['{"command": "x", "verdicts": [1]}',
                              '{"command": [1], "verdicts": {}}']):
        odd = tmp_path / f"odd{i}.json"
        odd.write_text(text)
        assert _run(["report", str(odd)]) == 1
        assert "is not a command summary" in capsys.readouterr().err
    assert _run(["report"]) == 1  # no inputs is a usage error


def test_report_prints_one_row_per_verdict(tmp_path, capsys, gennum_cfg):
    tower = _write_config(tmp_path, "tower.json", {
        "generators": [{"kind": "power_tower", "vector": [1.0, 0.0]}]})
    vi = _write_config(tmp_path, "vi.json", _VI)
    runs = [("gennum-check", gennum_cfg, 0), ("vi-solve", vi, 0), ("gram-schmidt", tower, 2)]
    summaries = []
    for command, cfg, rc in runs:
        assert _run([command, "--config", cfg, "--out", str(tmp_path / command)]) == rc
        summaries.append(str(tmp_path / command / f"{command}_summary.json"))
    capsys.readouterr()
    assert _run(["report", *summaries]) == 2
    assert capsys.readouterr().out == (
        "command          verdict              value\n"
        "gennum-check     (informational)      ok\n"
        "vi-solve         coercive             pass\n"
        "gram-schmidt     closed_edged         FAIL\n")


@pytest.mark.parametrize("verdict", ['"false"', "0", "null", "[]"])
def test_report_refuses_a_verdict_that_is_not_a_boolean(tmp_path, capsys, verdict):
    odd = tmp_path / "odd.json"
    odd.write_text(f'{{"command": "x", "verdicts": {{"ok": true, "coercive": {verdict}}}}}')
    assert _run(["report", str(odd)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "every verdict must be true or false" in err


# ------------------------------------------------------------- bad config

_VI = {"operator": {"kind": "constant", "matrix": [[1.0]]}, "rhs": [1.0],
       "set": {"kind": "box", "lower": [0.0], "upper": [1.0]}}
_VI_2D = {"operator": {"kind": "constant", "matrix": [[2.0, 0.0], [0.0, 2.0]]},
          "rhs": [1.0, 2.0], "set": {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]}}


@pytest.mark.parametrize("cfg,args,needle", [
    ({"nets": []}, ["gennum-check"], "/nets"),
    ({"nets": [{"kind": "warp"}]}, ["gennum-check"], "/nets/0/kind"),
    ({"nets": [{"kind": "samples", "values": [1.0]}]}, ["gennum-check"], "/nets/0/values"),
    ({"nets": [1.0], "policy": {"bogus": 3}}, ["gennum-check"], "/policy"),
    ({"nets": [1.0], "grid": 7}, ["gennum-check"], "/grid"),
    ({"operator": {"kind": "warp"}}, ["classify-op"], "/operator/kind"),
    ({}, ["classify-op"], "/operator"),
    ({"operator": {"kind": "constant", "matrix": [[1.0]]}, "rhs": 3,
      "set": {"kind": "box", "lower": [0.0], "upper": [1.0]}},
     ["vi-solve"], "/rhs"),
    ({"operator": {"kind": "constant", "matrix": [[1.0]]}, "rhs": [1.0],
      "set": {"kind": "moebius"}}, ["vi-solve"], "/set/kind"),
    ({"problem": {"interval": [0.0, 1.0]}}, ["solve-dirichlet"], "/problem"),
    ({"generators": [{"kind": "warp"}]}, ["gram-schmidt"], "/generators/0"),
    ({"random": {"m": 2, "d": 3, "powers": [1]}}, ["gram-schmidt"], "/random/powers"),
    ({"random": {"m": 0, "d": 3}}, ["gram-schmidt"], "/random/m"),
    ({"random": {"m": 2, "d": -1}}, ["gram-schmidt"], "/random/d"),
    ({"operator": {"kind": "idempotent_diag", "members": [1, 99]}}, ["classify-op"],
     "/operator/members/1"),
    ({"operator": {"kind": "idempotent_diag", "members": [1], "dim": -1}}, ["classify-op"],
     "/operator/dim"),
    ({"operator": {"kind": "diag_powers", "powers": []}}, ["classify-op"], "/operator/powers"),
    ({"operator": {"kind": "diag_powers", "powers": [[1, 2], [3, 4]]}}, ["classify-op"],
     "/operator/powers: must be a nonempty list"),
    ({**_VI_2D, "rhs": [1.0, 2.0, 3.0]}, ["vi-solve"], "/rhs: must have length 2"),
    ({**_VI_2D, "rhs": [[1.0, 2.0], [1.0, 2.0]]}, ["vi-solve"], "/rhs: must be a vector"),
    ({**_VI_2D, "set": {"kind": "box", "lower": [0.0] * 3, "upper": [1.0] * 3}}, ["vi-solve"],
     "/set/lower: must have length 2"),
    ({"generators": [{"kind": "constant", "vector": [1, 2]},
                     {"kind": "constant", "vector": [1, 2, 3]}]}, ["gram-schmidt"],
     "/generators/1/vector: must have length 2"),
    ({**_VI_2D, "operator": {"kind": "constant", "matrix": [[1, 0, 0], [0, 1, 0]]}},
     ["vi-solve"], "/operator/matrix: must be square"),
], ids=lambda v: v if isinstance(v, str) else "")
def test_config_errors_point_into_the_document(tmp_path, capsys, cfg, args, needle):
    path = _write_config(tmp_path, "bad.json", cfg)
    rc = _run(args + ["--config", path, "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error" in err and needle in err


@pytest.mark.parametrize("cfg,args,needle", [
    ({"operator": {"kind": "constant"}}, ["classify-op"], "/operator: missing field 'matrix'"),
    ({"problem": {"interval": [0.0, 1.0], "diffusion": 1.0}}, ["solve-dirichlet"],
     "/problem: missing field 'n_elems'"),
    ({"generators": [{"kind": "power_scaled"}]}, ["gram-schmidt"],
     "/generators/0: missing field 'vector'"),
    ({"random": {"m": 2}}, ["gram-schmidt"], "/random: missing field 'd'"),
    ({**_VI, "set": {"kind": "box", "lower": [0.0]}}, ["vi-solve"],
     "/set: missing field 'upper'"),
], ids=["operator-matrix", "problem-n_elems", "generator-vector", "random-d", "box-upper"])
def test_missing_fields_are_config_errors(tmp_path, capsys, cfg, args, needle):
    path = _write_config(tmp_path, "bad.json", cfg)
    rc = _run(args + ["--config", path, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "config error" in err and needle in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field,needle", [
    ({"potential": {"kind": "mollified_measure", "masses": [[0.0]]}},
     "/problem/potential/masses/0"),
    ({"potential": {"kind": "constant", "value": "abc"}}, "/problem/potential/value"),
    ({"boundary": ["a", 0.0]}, "/problem/boundary/0"),
    ({"rhs": "abc"}, "/problem/rhs: must be a number, got 'abc'"),
    # refused by the problem's constructors (fem.Mesh1D, CoefficientNet, ProblemSpec)
    ({"interval": [1.0, 0.0]}, "/problem/interval"),
    ({"n_elems": 2}, "/problem/n_elems"),
    ({"diffusion": {"kind": "heaviside_nu", "nu_exponent": -1.0}},
     "/problem/diffusion/nu_exponent"),
    ({"point_loads": [[0.5, 1.0], [2.0, 1.0]]}, "/problem/point_loads/1"),
    ({"diffusion": {"kind": "tabulated", "xs": [0.0, 1.0], "values": [1.0, 1.0, 1.0]}},
     "/problem/diffusion/values"),
    ({"obstacle": [1.0, 2.0, 3.0]}, "/problem/obstacle"),
    ({"interval": [0.0, INF]}, "/problem/interval: interval [0.0, inf] has an infinite end"),
    ({"interval": [-1e308, 1e308]}, "/problem/interval: interval [-1e+308, 1e+308] has an "
                                    "infinite end or a width past the float range"),
    ({"interval": [0.0, 1e160]}, "/problem/interval: element width h = 6.25e+158: h^2 is not "
                                 "a positive finite float"),
    ({"interval": [0.0, 1e-170]}, "/problem/interval: element width h = 6.25e-172"),
], ids=["masses", "value", "boundary", "rhs", "interval", "n_elems", "nu_exponent",
        "point_load", "tabulated", "obstacle", "infinite-end", "overflowed-width",
        "overflowed-h-squared", "underflowed-h-squared"])
def test_malformed_problem_fields_are_config_errors(tmp_path, capsys, field, needle):
    path = _write_config(tmp_path, "bad.json", {"problem": {
        "interval": [0.0, 1.0], "n_elems": 16, "diffusion": 1.0, **field}})
    rc = _run(["solve-dirichlet", "--config", path, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"config error: {needle}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("cfg,args,needle", [
    ({"nets": [{"kind": "power", "a": "x"}]}, ["gennum-check"], "/nets/0/a"),
    ({"nets": [{"kind": "samples", "values": ["x"] * K_DEFAULT}]}, ["gennum-check"],
     "/nets/0/values"),
    ({**_VI, "set": {"kind": "box", "lower": ["a"], "upper": [1.0]}}, ["vi-solve"],
     "/set/lower"),
    ({**_VI, "rhs": ["a"]}, ["vi-solve"], "/rhs"),
    ({"operator": {"kind": "constant", "matrix": [["x"]]}}, ["classify-op"],
     "/operator/matrix"),
    ({"operator": {"kind": "diag_powers", "powers": [1.0, [2.0]]}}, ["classify-op"],
     "/operator/powers"),
    ({"generators": [{"kind": "constant", "vector": ["x", 1.0]}]}, ["gram-schmidt"],
     "/generators/0/vector"),
    ({"problem": {"interval": [0.0, 1.0], "n_elems": 16, "diffusion": 1.0,
                  "potential": {"kind": "tabulated", "xs": [0.0, "x"], "values": [1.0, 1.0]}}},
     ["solve-dirichlet"], "/problem/potential/xs"),
    ({"nets": [1.0], "grid": {"K": "x"}}, ["gennum-check"], "/grid/K"),
    ({"nets": [1.0], "grid": {"K": 8.7}}, ["gennum-check"], "/grid/K"),
    ({"nets": [1.0], "grid": {"base": [1]}}, ["gennum-check"], "/grid/base"),
    ({"nets": [1.0], "policy": {"tail": 30}}, ["gennum-check"], "/policy/tail"),
    ({"nets": [1.0], "policy": {"tail": 8.5}}, ["gennum-check"], "/policy/tail"),
    ({"nets": [1.0], "policy": {"tail": 12}}, ["gennum-check", "--grid-K", "10"],
     "/policy/tail"),
    ({"operator": {"kind": "constant", "matrix": [[1.0, 0.0], [0.0, 1.0]]}, "rhs": [1.0, 1.0],
      "set": {"kind": "box", "lower": [NAN, 0.0], "upper": [1.0, 1.0]}}, ["vi-solve"],
     "/set/lower"),
    ({**_VI, "set": {"kind": "obstacle", "lower": [NAN]}}, ["vi-solve"], "/set/lower"),
    ({**_VI, "rhs": [NAN]}, ["vi-solve"], "/rhs"),
    ({"nets": [NAN]}, ["gennum-check"], "/nets/0"),
    ({"nets": [{"kind": "power", "a": NAN}]}, ["gennum-check"], "/nets/0/a"),
    ({"nets": [1.0], "grid": {"base": NAN}}, ["gennum-check"], "/grid/base"),
    ({"nets": [1.0], "policy": {"tol_abs": NAN}}, ["gennum-check"], "/policy/tol_abs"),
    ({"problem": {"interval": [0.0, 1.0], "n_elems": 16, "diffusion": 1.0, "rhs": NAN}},
     ["solve-dirichlet"], "/problem/rhs"),
    ({"problem": {"interval": [0.0, 1.0], "n_elems": 16, "diffusion": NAN}},
     ["solve-dirichlet"], "/problem/diffusion"),
    ({"problem": {"interval": [0.0, 1.0], "n_elems": 16, "diffusion": 1.0,
                  "obstacle": NAN}}, ["solve-obstacle"], "/problem/obstacle"),
    ({"operator": {"kind": "constant", "matrix": [[]]}}, ["classify-op"],
     "/operator/matrix: must not be empty, got shape (1, 0)"),
    ({"operator": {"kind": "constant", "matrix": []}}, ["classify-op"],
     "/operator/matrix: must not be empty, got shape (0,)"),
    ({"operator": {"kind": "constant", "matrix": [[]]}, "rhs": [],
      "set": {"kind": "box", "lower": [], "upper": []}}, ["vi-solve"],
     "/operator/matrix: must not be empty"),
    ({"operator": {"kind": "samples", "matrices": [[[]]] * K_DEFAULT}}, ["classify-op"],
     "/operator/matrices: must be (K, d_out, d_in), d_out, d_in >= 1"),
    ({"operator": {"kind": "constant", "matrix": [[INF, 0.0], [0.0, 1.0]]}}, ["classify-op"],
     "/operator/matrix: not finite: ±inf or NaN at grid index k=1"),
    ({**_VI_2D, "operator": {"kind": "constant", "matrix": [[2.0, 0.0], [0.0, -INF]]}},
     ["vi-solve"], "/operator/matrix: not finite"),
    ({"operator": {"kind": "samples", "matrices": [[[1.0]]] * 2 + [[[INF]]] * 22}},
     ["classify-op"], "/operator/matrices: not finite: ±inf or NaN at grid index k=3"),
    ({"operator": {"kind": "diag_powers", "powers": [1.0, -2000.0]}}, ["classify-op"],
     "/operator/powers: not finite"),
    ({"operator": {"kind": "rotation", "theta_power": -2000.0}}, ["classify-op"],
     "/operator/theta_power: not finite"),
    ({"generators": [{"kind": "constant", "vector": [INF, 0.0]}]}, ["gram-schmidt"],
     "/generators/0: not finite: ±inf or NaN at grid index k=1"),
    ({"generators": [{"kind": "constant", "vector": [1.0, 0.0]},
                     {"kind": "power_scaled", "vector": [1.0, 1.0], "power": -2000.0}]},
     ["gram-schmidt"], "/generators/1: not finite"),
    ({"random": {"m": 2, "d": 2, "powers": [0.0, -2000.0]}}, ["gram-schmidt"],
     "/random: not finite"),
    ({"nets": [1.0, {"kind": "samples", "values": [1.0] * (K_DEFAULT - 1) + [INF]}]},
     ["gennum-check"], "/nets/1: not finite: ±inf or NaN at grid index k=24"),
    ({"nets": [{"kind": "power", "a": -2000.0}]}, ["gennum-check"],
     "/nets/0: not finite: ±inf or NaN at grid index k=1"),
    ({**_VI_2D, "set": {"kind": "box", "lower": [INF, 0.0], "upper": [INF, 1.0]}},
     ["vi-solve"], "/set: lower bound is +inf at grid index k=1"),
    ({"problem": {"interval": [0.0, 1.0], "n_elems": 8, "diffusion": 1.0, "rhs": -8.0,
                  "obstacle": [-1.0] * 4 + [INF] + [-1.0] * 4}}, ["solve-obstacle"],
     "/problem/obstacle: obstacle bound is +inf at grid index k=1"),
], ids=["power", "samples", "box", "rhs", "matrix", "powers", "vector", "tabulated",
        "grid-K", "grid-K-fraction", "grid-base", "policy-tail", "policy-tail-fraction",
        "policy-tail-grid-K", "nan-box", "nan-obstacle-set", "nan-rhs", "nan-net",
        "nan-power", "nan-grid-base", "nan-tol-abs", "nan-problem-rhs", "nan-diffusion",
        "nan-obstacle", "empty-matrix", "empty-matrix-1d", "empty-vi-matrix",
        "empty-matrices", "inf-matrix", "inf-vi-matrix", "inf-matrices",
        "overflowed-powers", "overflowed-theta-power", "inf-vector",
        "overflowed-power-scaled", "overflowed-random", "inf-net-samples",
        "overflowed-power-net", "empty-box", "inf-obstacle"])
def test_malformed_numbers_are_config_errors(tmp_path, capsys, cfg, args, needle):
    path = _write_config(tmp_path, "bad.json", cfg)
    rc = _run(args + ["--config", path, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "config error" in err and needle in err
    assert "Traceback" not in err


_PROBLEM = {"interval": [0.0, 1.0], "n_elems": 16, "diffusion": 1.0, "rhs": 1.0}


@pytest.mark.parametrize("cfg,args,message", [
    ({"nets": [{"kind": "power", "a": True}]}, ["gennum-check"],
     "/nets/0/a: must be a number, got true"),
    ({"nets": [1.0], "grid": {"K": True}}, ["gennum-check"], "/grid/K: must be a number, got true"),
    ({"problem": {**_PROBLEM, "interval": [False, 1.0]}}, ["solve-dirichlet"],
     "/problem/interval/0: must be a number, got false"),
    ({**_VI_2D, "operator": {"kind": "constant", "matrix": [[True, False], [False, True]]}},
     ["vi-solve"], "/operator/matrix: must be numbers, got a boolean"),
    ({**_VI_2D, "rhs": [True, 0.0]}, ["vi-solve"], "/rhs: must be numbers, got a boolean"),
    ({**_VI_2D, "set": {"kind": "box", "lower": [False, -1.0], "upper": [True, 1.0]}},
     ["vi-solve"], "/set/lower: must be numbers, got a boolean"),
    ({"nets": [True]}, ["gennum-check"], "/nets/0: must be a number, got true"),
    ({"problem": {**_PROBLEM, "diffusion": True}}, ["solve-dirichlet"],
     "/problem/diffusion: must be a number, got true"),
    ({"problem": {**_PROBLEM, "rhs": False}}, ["solve-dirichlet"],
     "/problem/rhs: must be a number, got false"),
], ids=["number", "number-int", "pair", "array-matrix", "array-rhs", "array-box",
        "scalar-net", "coefficient", "problem-rhs"])
def test_booleans_are_not_numbers(tmp_path, capsys, cfg, args, message):
    # Python's bool is an int, but no config field is boolean
    path = _write_config(tmp_path, "bool.json", cfg)
    assert _run(args + ["--config", path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


_SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def _in_fresh_interpreter(code, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


def test_the_readme_quickstart_prints_what_its_comments_state():
    # each python block of README.md runs in a fresh interpreter; the
    # quickstart's comments state a valuation of -1.5, a certificate
    # "True 2" and a moderate solution
    readme = (SRC.parent / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.S | re.M)
    assert blocks
    outputs = [_in_fresh_interpreter(block).splitlines() for block in blocks]
    valuation, cert, solution = outputs[0][:3]
    assert abs(float(valuation) + 1.5) <= 1e-12
    assert cert == "True 2"
    assert solution.split()[1] == "True"


def test_no_numpy_warning_reaches_stderr(tmp_path, capsys):
    # At K = 200, eps_k**-N_mod overflows (from K = 52 on) and eps_k**m_inv is
    # 0 (from k = 108 on); at K = 24 so do eps_k**-60 and eps_k**50 (k >= 22).
    # The README's nets and vi configs, its fem config, two parallel
    # generators, a small obstacle problem, one whose obstacle -1e308
    # makes the active-set update overflow and one at -DBL_MAX, whose
    # np.spacing overflowed, with every warning an error;
    # then configs refused as config errors: an infinite net sample, an
    # overflowed power net and an empty box.
    nets = {"nets": [{"kind": "power", "a": -3.0}, {"kind": "power", "a": 2.5, "c": 2.0},
                     {"kind": "constant", "value": 5.0}]}
    vi = {"operator": {"kind": "constant", "matrix": [[2, 1], [-1, 2]]}, "rhs": [-2.0, 4.0],
          "set": {"kind": "box", "lower": [0.0, 0.0], "upper": [1e6, 1e6]}}
    fem = {"problem": {"interval": [-1.0, 1.0], "n_elems": 200,
                       "diffusion": {"kind": "heaviside_nu", "nu_exponent": 1.0},
                       "potential": {"kind": "mollified_measure", "masses": [[0.0, 1.0]]},
                       "rhs": 1.0}}
    runs = [
        ("gennum-check", nets, 200),
        ("classify-op", vi, 200),
        ("gram-schmidt", {"generators": [{"kind": "constant", "vector": [1.0, 0.0]},
                                         {"kind": "constant", "vector": [2.0, 0.0]}]}, 200),
        ("vi-solve", vi, 200),
        ("solve-dirichlet", fem, 200),
        ("solve-obstacle", _PROTOCOL_CASES["solve-obstacle"], 200),
        ("gennum-check", {**nets, "policy": {"N_mod": 60, "m_inv": 50}}, 24),
        ("solve-obstacle", {"problem": {**_PROTOCOL_CASES["solve-obstacle"]["problem"],
                                        "obstacle": -1e308}}, 24),
        ("solve-obstacle", {"problem": {**_PROTOCOL_CASES["solve-obstacle"]["problem"],
                                        "obstacle": -1.7976931348623157e308}}, 24),
    ]
    refused = [
        ("gennum-check", {"nets": [{"kind": "samples", "values": [1.0] * 23 + [INF]}]}, 24),
        ("gennum-check", {"nets": [{"kind": "power", "a": -2000.0}]}, 24),
        ("vi-solve", {**vi, "set": {"kind": "box", "lower": [INF, 0.0], "upper": [INF, 1.0]}},
         24),
    ]
    for i, (command, cfg, K) in enumerate(runs + refused):
        path = _write_config(tmp_path, f"cfg{i}.json", cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = _run([command, "--config", path, "--out", str(tmp_path / f"out{i}"),
                       "--grid-K", str(K)])
        err = capsys.readouterr().err
        if i < len(runs):
            assert (command, K, rc, err) == (command, K, 0, "")
        else:
            assert (command, rc, err.startswith("config error: "), err.count("\n")) == \
                (command, 1, True, 1)


def test_loads_near_the_float64_limit_keep_their_checks_finite(tmp_path, capsys):
    # the squares of b ~ 1e299 overflowed: the residual came out NaN, and the
    # obstacle's complementarity check was scaled by 1 + |b| = inf
    problem = {"interval": [0.0, 1.0], "n_elems": 8, "diffusion": 1.0, "rhs": -1e300}
    for command, extra in (("solve-dirichlet", {}), ("solve-obstacle", {"obstacle": -0.75})):
        cfg = _write_config(tmp_path, f"{command}.json", {"problem": {**problem, **extra}})
        out = tmp_path / command
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = _run([command, "--config", cfg, "--out", str(out)])
        assert "Warning" not in capsys.readouterr().err
        summary = json.loads((out / f"{command}_summary.json").read_text())
        if command == "solve-dirichlet":
            # |u| ~ 1e299 is not moderate, the one verdict that fails
            assert rc == 2 and summary["verdicts"] == {
                "coercive": True, "residual_ok": True, "moderate": False}
            assert np.all(np.array(summary["residual"]) <= RESIDUAL_TARGET)
            assert np.all(np.isfinite(summary["h1_norm"]))
        else:
            assert rc == 0 and summary["complementarity_ok"]
            assert np.isfinite(summary["complementarity_max"])


def test_infinite_box_bounds_are_numbers(tmp_path):
    cfg = _write_config(tmp_path, "vi.json", {
        **_VI, "set": {"kind": "box", "lower": [-INF], "upper": [INF]}})
    out = tmp_path / "out"
    assert _run(["vi-solve", "--config", cfg, "--out", str(out)]) == 0
    assert float((out / "solution.csv").read_text().splitlines()[1].split(",")[2]) == 1.0


def test_import_loads_no_scipy_beyond_linalg():
    # the scipy.linalg package alone about doubles the start-up time and
    # memory of every command; the band solves load only its LAPACK extension
    code = f"import sys, gennet.cli; print({_SCIPY_MODULES})"
    assert _in_fresh_interpreter(code).strip() == "[]"


def _small_command_steps(tmp_path, gennum_cfg) -> list:
    """Command lines of every small-matrix command, report included, then a
    small solve-dirichlet, all writing into one output directory."""
    out = str(tmp_path / "out")
    configs = {
        "classify-op": {"operator": {"kind": "rotation", "theta_power": 1.0}},
        "gram-schmidt": {"generators": [{"kind": "constant", "vector": [1.0, 0.0]},
                                        {"kind": "power_scaled", "vector": [1.0, 1.0],
                                         "power": 1.0}]},
        "vi-solve": _VI,
        "solve-dirichlet": {"problem": {"interval": [0.0, 1.0], "n_elems": 16,
                                        "diffusion": 1.0, "rhs": 1.0}},
    }
    paths = {cmd: _write_config(tmp_path, f"{cmd}.json", cfg) for cmd, cfg in configs.items()}
    steps = [["gennum-check", "--config", gennum_cfg, "--out", out]]
    steps += [[cmd, "--config", paths[cmd], "--out", out]
              for cmd in ("classify-op", "gram-schmidt", "vi-solve")]
    steps += [["report", os.path.join(out, "gennum-check_summary.json"),
               os.path.join(out, "vi-solve_summary.json")],
              ["solve-dirichlet", "--config", paths["solve-dirichlet"], "--out", out]]
    return steps


def _modules_after_each_step(steps, modules) -> list:
    """[command, exit code, ``modules``] after each step, run in one fresh
    interpreter; ``modules`` is an expression over ``sys.modules``."""
    code = ("import json, sys\n"
            "from gennet.cli import main\n"
            "for step in json.loads(sys.argv[1]):\n"
            f"    print(json.dumps([step[0], main(step), {modules}]))\n")
    lines = _in_fresh_interpreter(code, json.dumps(steps)).splitlines()
    runs = [json.loads(line) for line in lines if line.startswith("[")]
    assert [cmd for cmd, _, _ in runs] == [step[0] for step in steps]
    return runs


def test_small_matrix_commands_never_load_scipy(tmp_path, gennum_cfg):
    runs = _modules_after_each_step(_small_command_steps(tmp_path, gennum_cfg),
                                    _SCIPY_MODULES)
    # the band solve of solve-dirichlet loads scipy's LAPACK extension as a
    # file, outside sys.modules and without the scipy packages
    for cmd, rc, loaded in runs:
        assert (cmd, rc, loaded) == (cmd, 0, [])


def test_import_and_every_command_load_no_click(tmp_path, gennum_cfg):
    # importing click takes 15-27 ms and its parsing about 0.3 ms per
    # command, against argparse's parsers built once at import
    click_modules = "sorted(m for m in sys.modules if m.split('.')[0] == 'click')"
    assert _in_fresh_interpreter(f"import sys, gennet.cli; print({click_modules})"
                                 ).strip() == "[]"
    runs = _modules_after_each_step(_small_command_steps(tmp_path, gennum_cfg),
                                    click_modules)
    assert [(rc, loaded) for _, rc, loaded in runs] == [(0, [])] * len(runs)


def test_band_solves_share_lapack_with_a_later_scipy_import():
    code = f"""
import json, sys
import numpy as np
from gennet import EpsGrid, TridiagonalOperator
from gennet.operators import _flapack
K, n = 8, 40
grid = EpsGrid.geometric(K)
rng = np.random.default_rng(7)
bands = np.stack([rng.uniform(2.5, 3.5, (K, n)), rng.uniform(-1.0, 1.0, (K, n))], axis=1)
real = TridiagonalOperator(grid, bands)
cplx = TridiagonalOperator(grid, bands + 1j * rng.uniform(-1.0, 1.0, (K, 2, n)))
b = rng.standard_normal((K, n))
nets = [(real, b, real.solve(b)), (cplx, b - 2j * b[::-1], cplx.solve(b - 2j * b[::-1]))]
own = _flapack()
before = {_SCIPY_MODULES}
import scipy.linalg
from scipy.linalg import solve_banded
def banded(sample):  # solve_banded's (3, n) form of a symmetric (2, n) band sample
    diag, off = sample
    return np.stack([off, diag, np.append(off[1:], 0.0)])
print(json.dumps({{
    "before": before,
    "bitwise": [np.stack([solve_banded((1, 1), banded(T.samples[k]), rhs[k]) for k in range(K)])
                .tobytes() == x.tobytes() for T, rhs, x in nets],
    "dtypes": [str(x.dtype) for _, _, x in nets],
    "shared": [scipy.linalg.lapack.dgtsv is own.dgtsv, scipy.linalg.lapack.zgtsv is own.zgtsv],
    "package_attribute": _flapack() is scipy.linalg._flapack,
}}))
"""
    assert json.loads(_in_fresh_interpreter(code)) == {
        "before": [], "bitwise": [True, True], "dtypes": ["float64", "complex128"],
        "shared": [True, True], "package_attribute": True}


def test_usage_errors_exit_1(tmp_path):
    assert _run(["frobnicate"]) == 1
    assert _run(["gennum-check"]) == 1  # --config is required
    assert _run(["gennum-check", "--config", str(tmp_path / "missing.json")]) == 1
    cfg = _write_config(tmp_path, "vi.json", _VI)
    assert _run(["vi-solve", "--config", cfg, "--parallel", "true"]) == 1


_COMMANDS = ["classify-op", "gennum-check", "gram-schmidt", "report",
             "solve-dirichlet", "solve-obstacle", "vi-solve"]

# argv, with {cfg}, {random}, {dir} and {missing} standing for a valid
# config, a config with /random generators, a directory and a path that
# does not exist; and a pattern that the one error line must match, naming
# the offending option or argument
_USAGE_ERRORS = {
    "unknown-command": (["frobnicate"], r"frobnicate"),
    "no-command": ([], r"command"),
    "missing-config": (["gennum-check"], r"--config\b"),
    "config-does-not-exist": (["gennum-check", "--config", "{missing}"], r"--config\b"),
    "config-is-a-directory": (["gennum-check", "--config", "{dir}"], r"--config\b"),
    "config-without-value": (["gennum-check", "--config"], r"--config\b"),
    "out-is-a-file": (["gennum-check", "--config", "{cfg}", "--out", "{cfg}"], r"--out\b"),
    "grid-K-not-an-integer": (["gennum-check", "--config", "{cfg}", "--grid-K", "abc"],
                              r"--grid-K\b"),
    # EpsGrid takes no fewer than 8 points
    "grid-K-below-8": (["gennum-check", "--config", "{cfg}", "--grid-K", "4"],
                       r"--grid-K\b.*\b8\b"),
    "removed-parallel": (["vi-solve", "--config", "{cfg}", "--parallel", "true"],
                         r"--parallel\b"),
    # an abbreviation is not taken for the option, and is named before the
    # --config it leaves missing
    "abbreviated-config": (["gennum-check", "--conf", "{cfg}"], r"--conf\b"),
    "abbreviated-seed": (["gram-schmidt", "--config", "{cfg}", "--se", "3"], r"--se\b"),
    # numpy's generator refuses a negative seed; the command line refuses it first
    "negative-seed": (["gram-schmidt", "--config", "{random}", "--seed", "-1"], r"--seed\b"),
    "negative-seed-after-equals": (["gram-schmidt", "--config", "{random}", "--seed=-7"],
                                   r"--seed\b"),
    "report-without-summaries": (["report"], r"SUMMAR(Y|IES)\b"),
    "report-of-a-directory": (["report", "{dir}"], r"SUMMAR(Y|IES)\b"),
}


@pytest.mark.parametrize("case", list(_USAGE_ERRORS))
def test_usage_errors_print_one_line_naming_the_offender(tmp_path, capsys, gennum_cfg, case):
    argv, pattern = _USAGE_ERRORS[case]
    slots = {"cfg": gennum_cfg, "dir": str(tmp_path), "missing": str(tmp_path / "no.json"),
             "random": _write_config(tmp_path, "random.json", {"random": {"m": 2, "d": 3}})}
    assert _run([arg.format(**slots) for arg in argv]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error:"), captured.err
    assert re.search(pattern, lines[0], re.IGNORECASE), lines[0]
    assert captured.out == ""


def test_option_equals_value_and_help_exit_0(tmp_path, capsys, gennum_cfg):
    out = tmp_path / "out"
    assert _run(["gennum-check", f"--config={gennum_cfg}", f"--out={out}"]) == 0
    assert (out / "nets.csv").is_file()
    capsys.readouterr()
    assert _run(["--help"]) == 0
    text = capsys.readouterr().out
    assert all(command in text for command in _COMMANDS), text
    # --help wins over any other argument, checked or not
    assert _run(["gennum-check", "--config", str(tmp_path / "missing.json"), "--help"]) == 0
    capsys.readouterr()
    for command in _COMMANDS:
        assert _run([command, "--help"]) == 0
        text = capsys.readouterr().out
        assert command in text and "--help" in text and "--out" in text
        assert ("--config" in text) == (command != "report")
        assert ("--seed" in text) == (command == "gram-schmidt")


def test_unreadable_config_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert _run(["gennum-check", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    assert "cannot read config" in capsys.readouterr().err


# ----------------------------------------------------------- output files

def test_unwritable_output_exits_1_and_names_the_file(tmp_path, capsys, gennum_cfg):
    out = tmp_path / "out"
    (out / "nets.csv").mkdir(parents=True)
    assert _run(["gennum-check", "--config", gennum_cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"output error: cannot write {out / 'nets.csv'}: Is a directory"]
    summary = tmp_path / "x_summary.json"
    summary.write_text('{"command": "x", "verdicts": {}}')
    out = summary / "out"  # under a plain file
    for args in (["gennum-check", "--config", gennum_cfg], ["report", str(summary)]):
        assert _run([*args, "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"output error: cannot make output directory {out}: Not a directory"]


def test_rerun_replaces_every_output_with_a_new_file(tmp_path, gennum_cfg):
    # one run of each writer: write_grid_csv (nets.csv), _write_nodal_csv
    # (solution.csv), the command summaries and report.json
    dirichlet = _write_config(tmp_path, "dirichlet.json", {
        "problem": {"interval": [0.0, 1.0], "n_elems": 8, "diffusion": 1.0, "rhs": 1.0}})
    out, links = tmp_path / "out", tmp_path / "links"
    steps = [["gennum-check", "--config", gennum_cfg, "--out", str(out)],
             ["solve-dirichlet", "--config", dirichlet, "--out", str(out)],
             ["report", str(out / "gennum-check_summary.json"),
              str(out / "solve-dirichlet_summary.json"), "--out", str(out)]]
    names = ["gennum-check_summary.json", "nets.csv", "report.json",
             "solution.csv", "solve-dirichlet_summary.json"]
    for step in steps:
        assert _run(step) == 0
    assert sorted(os.listdir(out)) == names
    first = {name: (out / name).read_bytes() for name in names}
    links.mkdir()
    for name in names:
        os.link(out / name, links / name)

    for step in steps:
        assert _run(step) == 0
    assert sorted(os.listdir(out)) == names
    for name in names:
        old, new = os.stat(links / name), os.stat(out / name)
        assert (links / name).read_bytes() == first[name], name
        assert old.st_ino != new.st_ino and old.st_nlink == 1, name
        if name.endswith(".csv"):
            assert (out / name).read_bytes() == first[name], name


def test_a_symlink_at_an_output_name_is_replaced_not_followed(tmp_path, gennum_cfg):
    out, target = tmp_path / "out", tmp_path / "elsewhere.txt"
    out.mkdir()
    target.write_text("keep me\n")
    (out / "nets.csv").symlink_to(target)
    assert _run(["gennum-check", "--config", gennum_cfg, "--out", str(out)]) == 0
    assert target.read_text() == "keep me\n"
    assert not (out / "nets.csv").is_symlink()
    assert (out / "nets.csv").read_text().startswith("k,eps,net0,net1,net2\n")


def test_summaries_write_infinity_as_null_and_report_reads_it_back(tmp_path):
    # the valuation of the zero net is +inf; RFC 8259 JSON has no infinity,
    # so the summary writes null, which orjson and report read back
    cfg = _write_config(tmp_path, "zero.json", {"nets": [{"kind": "constant", "value": 0.0}]})
    out = tmp_path / "out"
    assert _run(["gennum-check", "--config", cfg, "--out", str(out)]) == 0
    summary = out / "gennum-check_summary.json"
    text = summary.read_text()
    assert '"valuation": null' in text and '"net0": null' in text
    row = orjson.loads(text)["results"][0]
    assert row["valuation"] is None and row["sharp_norm"] == 0.0
    assert _run(["report", str(summary), "--out", str(out)]) == 0
    blob = orjson.loads((out / "report.json").read_bytes())
    assert blob["all_ok"] is True
    assert blob["reports"][0]["valuations"] == {"net0": None}


def test_every_summary_and_report_is_strict_json(tmp_path):
    # orjson.loads refuses the NaN and Infinity tokens that RFC 8259 lacks;
    # the zero net's valuation is +inf
    cases = {**_PROTOCOL_CASES, "gennum-check": {"nets": [{"kind": "power", "a": 1.0},
                                                          {"kind": "constant", "value": 0.0}]}}
    summaries = []
    for case, cfg in sorted(cases.items()):
        command = case.removesuffix("-tower")
        out = tmp_path / case
        assert _run([command, "--config", _write_config(tmp_path, f"{case}.json", cfg),
                     "--out", str(out)]) == (2 if case == "gram-schmidt-tower" else 0)
        summaries.append(out / f"{command}_summary.json")
    assert _run(["report", *map(str, summaries), "--out", str(tmp_path)]) == 2
    for path in [*summaries, tmp_path / "report.json"]:
        assert isinstance(orjson.loads(path.read_bytes()), dict), path


_ASCII = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=8)
_MID_FLOATS = st.builds(lambda sign, v: sign * v, st.sampled_from([1.0, -1.0]),
                        st.floats(1e-4, 1e16, exclude_max=True))
_JSON_VALUES = st.recursive(
    _ASCII | st.integers(-2**63, 2**63 - 1) | st.booleans() | st.none()
    | st.sampled_from([0.0, -0.0]) | _MID_FLOATS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_ASCII, inner, max_size=4),
    max_leaves=20)


@seed(20261020)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(obj=_JSON_VALUES)
def test_the_json_writer_matches_the_stdlib_layout(tmp_path, obj):
    # the stdlib encoder's text, wherever no float is non-finite or spelled
    # otherwise (|v| < 1e-4 or >= 1e16)
    path = tmp_path / "obj.json"
    _write_json(str(path), obj)
    assert path.read_text() == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_the_json_writer_writes_utf8_not_escapes(tmp_path):
    path = tmp_path / "text.json"
    _write_json(str(path), {"ε": "α ≥ 0", "x": float("nan")})
    assert path.read_bytes() == '{\n  "x": null,\n  "ε": "α ≥ 0"\n}\n'.encode()


@seed(20261021)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8))
def test_the_json_writer_round_trips_every_finite_float(tmp_path, values):
    path = tmp_path / "floats.json"
    _write_json(str(path), {"values": values})
    back = json.loads(path.read_text())["values"]
    assert [v.hex() for v in back] == [v.hex() for v in values]


def _writes_a_file(call: ast.Call) -> bool:
    """Whether ``call`` opens a file in a write mode or writes one whole.

    ``open``, ``io.open`` and ``Path.open`` count when a literal mode among
    their positional arguments or their ``mode=`` holds w, a, x or +; a
    ``mode=`` that is no literal counts too, since it cannot be checked.
    ``Path.write_text`` and ``Path.write_bytes`` always count.
    """
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return isinstance(func, ast.Attribute)
    if name != "open":
        return False
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
    if any(not isinstance(m, ast.Constant) for m in modes):
        return True
    modes += [arg for arg in call.args if isinstance(arg, ast.Constant)]
    return any(isinstance(m.value, str) and set(m.value) <= set("rwaxbt+")
               and set(m.value) & set("wax+") for m in modes)


def test_the_write_detector_sees_every_write_mode():
    calls = {"open(p)": False, "open(p, 'rb')": False, "p.open()": False,
             "open(p, 'w')": True, "open(p, 'a', newline='')": True,
             "open(p, mode='x')": True, "open(p, 'r+')": True, "io.open(p, 'wb')": True,
             "p.open('a')": True, "open(p, mode=m)": True, "p.write_text(s)": True}
    for source, writes in calls.items():
        assert _writes_a_file(ast.parse(source, mode="eval").body) == writes, source


def test_every_output_file_goes_through_one_opener():
    # gennum._open_output writes each output as a new file; an open(path,
    # "w") elsewhere would go back to truncating outputs in place
    offenders = []
    for path in sorted((SRC / "gennet").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        opener = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name == "_open_output"
                  for node in ast.walk(fn)}
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and _writes_a_file(node)
                      and id(node) not in opener]
    assert offenders == []
