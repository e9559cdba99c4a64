"""Command-line front end.

Every command takes a JSON config, writes CSV tables plus a
``*_summary.json`` into the output directory, and exits 0 on success,
2 when a mathematical verdict fails (non-coercive problem, generator
with no uniform scale, iteration budget exhausted, ...), and 1 on
usage or config errors.  CSV files are deterministic: running the same
config twice produces byte-identical output, decimal point '.' and
separator ','.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from .convex import ConvexSetNet
from .errors import (
    ConfigInvalid,
    GennetError,
    InvalidBasis,
    InvalidSpec,
    MalformedSummary,
    OutputUnwritable,
)
from .fem import CoefficientNet, Mesh1D, ProblemSpec, solve_dirichlet, solve_obstacle
# is_moderate, is_negligible and sharp_norm are unused here, but
# perfbench/spans.py wraps them by name
from .gennum import (  # noqa: F401
    EpsGrid,
    GenScalar,
    IndexSet,
    NumericPolicy,
    _open_output,
    is_moderate,
    is_negligible,
    make_power_net,
    net_verdicts,
    sharp_norm,
    valuation_estimate,
    write_grid_csv,
)
from .hilbert import GenVector
from .operators import BasicOperator, classify_operator, op_norm_net
from .submodules import GeneratorSet, classify_submodule
from .variational import certify_coercivity, vi_solve_contraction


def _make_out_dir(out: str) -> None:
    """Create the output directory ``out``; an OS error is an ``OutputUnwritable``."""
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise OutputUnwritable(
            f"cannot make output directory {out}: {exc.strerror or exc}") from exc


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigInvalid("config must be a JSON object")
    return cfg


def _build_grid(cfg: dict, grid_k: int | None) -> EpsGrid:
    gspec = cfg.get("grid", {})
    if not isinstance(gspec, dict):
        raise ConfigInvalid("/grid: must be an object")
    K = grid_k if grid_k is not None else _number(gspec.get("K", 24), "/grid/K", int)
    base = _number(gspec.get("base", 0.5), "/grid/base")
    try:
        return EpsGrid.geometric(K=K, base=base)
    except ValueError as exc:
        raise ConfigInvalid(f"/grid: {exc}") from exc


def _build_policy(cfg: dict, grid: EpsGrid) -> NumericPolicy:
    pspec = cfg.get("policy", {})
    if not isinstance(pspec, dict):
        raise ConfigInvalid("/policy: must be an object")
    values = {key: _number(value, f"/policy/{key}", float if key == "tol_abs" else int)
              for key, value in pspec.items()}
    try:
        policy = NumericPolicy(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"/policy: {exc}") from exc
    if policy.tail > grid.K:
        raise ConfigInvalid(f"/policy/tail: {policy.tail} exceeds the grid length K = {grid.K}")
    return policy


def _field(spec: dict, key: str, ptr: str):
    """``spec[key]``, or ConfigInvalid naming ``ptr`` and the missing key."""
    try:
        return spec[key]
    except KeyError:
        raise ConfigInvalid(f"{ptr}: missing field {key!r}") from None


def _scalar_net(spec, grid: EpsGrid, ptr: str = "/nets") -> GenScalar:
    if isinstance(spec, (int, float)):
        return GenScalar.constant(_number(spec, ptr), grid)
    if not isinstance(spec, dict):
        raise ConfigInvalid(f"{ptr}: net spec must be a number or an object")
    kind = spec.get("kind")
    if kind == "power":
        return make_power_net(_number(spec.get("c", 1.0), f"{ptr}/c"),
                              _number(_field(spec, "a", ptr), f"{ptr}/a"), grid)
    if kind == "constant":
        return GenScalar.constant(_number(_field(spec, "value", ptr), f"{ptr}/value"), grid)
    if kind == "samples":
        vals = _array(_field(spec, "values", ptr), f"{ptr}/values")
        if vals.shape != (grid.K,):
            raise ConfigInvalid(f"{ptr}/values: must have length {grid.K}")
        return GenScalar(grid, vals)
    raise ConfigInvalid(f"{ptr}/kind: unknown net kind {kind!r}")


def _operator_net(spec, grid: EpsGrid) -> BasicOperator:
    if not isinstance(spec, dict):
        raise ConfigInvalid("/operator: must be an object")
    kind = spec.get("kind")
    if kind == "constant":
        return BasicOperator.constant(
            _array(_field(spec, "matrix", "/operator"), "/operator/matrix"), grid)
    if kind == "rotation":
        theta = grid.values ** _number(spec.get("theta_power", 1.0), "/operator/theta_power")
        c, s = np.cos(theta), np.sin(theta)
        mats = np.stack([np.stack([c, -s], axis=1), np.stack([s, c], axis=1)], axis=1)
        return BasicOperator(grid, mats)
    if kind == "diag_powers":
        powers = _array(_field(spec, "powers", "/operator"), "/operator/powers")
        diags = grid.values[:, None] ** powers[None, :]
        mats = np.zeros((grid.K, powers.size, powers.size))
        np.einsum("kii->ki", mats)[:] = diags
        return BasicOperator(grid, mats)
    if kind == "idempotent_diag":
        members = {_number(m, f"/operator/members/{i}", int)
                   for i, m in enumerate(_field(spec, "members", "/operator"))}
        dim = _number(spec.get("dim", 2), "/operator/dim", int)
        S = IndexSet(frozenset(members), grid.K)
        mats = np.zeros((grid.K, dim, dim))
        np.einsum("kii->ki", mats)[:] = S.mask().astype(float)[:, None]
        return BasicOperator(grid, mats)
    if kind == "samples":
        mats = _array(_field(spec, "matrices", "/operator"), "/operator/matrices")
        if mats.ndim != 3 or mats.shape[0] != grid.K:
            raise ConfigInvalid("/operator/matrices: must be (K, d_out, d_in)")
        return BasicOperator(grid, mats)
    raise ConfigInvalid(f"/operator/kind: unknown operator kind {kind!r}")


def _number(value, ptr: str, cast=float):
    """``cast(value)``, or ConfigInvalid naming ``ptr`` if the value is not a
    number, is NaN, or with ``cast=int`` is not a whole number.  ±inf is a
    number: box bounds use it."""
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"{ptr}: must be a number, got {value!r}") from exc
    if math.isnan(number):
        raise ConfigInvalid(f"{ptr}: must be a number, got NaN")
    if cast is int and not number.is_integer():
        raise ConfigInvalid(f"{ptr}: must be an integer, got {value!r}")
    return cast(number)


def _array(value, ptr: str) -> np.ndarray:
    """A JSON number or (nested) list of numbers as a float array, or
    ConfigInvalid naming ``ptr`` if an entry is not a number or is NaN."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"{ptr}: must be numbers, got {value!r}") from exc
    if np.isnan(arr).any():
        raise ConfigInvalid(f"{ptr}: must be numbers, got NaN")
    return arr


def _pair(value, ptr: str) -> tuple:
    """Two numbers given as a JSON list of length 2."""
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigInvalid(f"{ptr}: must be a pair of numbers, got {value!r}")
    return _number(value[0], f"{ptr}/0"), _number(value[1], f"{ptr}/1")


def _pairs(value, ptr: str) -> list:
    """A JSON list of (location, weight) pairs."""
    if not isinstance(value, list):
        raise ConfigInvalid(f"{ptr}: must be a list of pairs")
    return [_pair(item, f"{ptr}/{i}") for i, item in enumerate(value)]


def _coefficient(spec, grid: EpsGrid, ptr: str = "/coefficient") -> CoefficientNet | None:
    if spec is None:
        return None
    if isinstance(spec, (int, float)):
        return CoefficientNet.constant(grid, _number(spec, ptr))
    if not isinstance(spec, dict):
        raise ConfigInvalid(f"{ptr}: must be a number or an object")
    kind = spec.get("kind")
    if kind == "constant":
        return CoefficientNet.constant(grid, _number(_field(spec, "value", ptr), f"{ptr}/value"))
    if kind == "heaviside_nu":
        return CoefficientNet.heaviside_nu(
            grid,
            nu_exponent=_number(spec.get("nu_exponent", 1.0), f"{ptr}/nu_exponent"),
            jump_at=_number(spec.get("jump_at", 0.0), f"{ptr}/jump_at"),
            high=_number(spec.get("high", 1.0), f"{ptr}/high"),
        )
    if kind == "mollified_measure":
        masses = _pairs(spec.get("masses", []), f"{ptr}/masses")
        density = spec.get("density")
        if density is not None:
            density = _number(density, f"{ptr}/density")
        return CoefficientNet.mollified_measure(grid, masses, density)
    if kind == "tabulated":
        return CoefficientNet.tabulated(grid, _array(_field(spec, "xs", ptr), f"{ptr}/xs"),
                                        _array(_field(spec, "values", ptr), f"{ptr}/values"))
    raise ConfigInvalid(f"{ptr}/kind: unknown coefficient kind {kind!r}")


def _problem(cfg: dict, grid: EpsGrid) -> ProblemSpec:
    p = cfg.get("problem")
    if not isinstance(p, dict):
        raise ConfigInvalid("/problem: must be an object")
    a, b = _pair(_field(p, "interval", "/problem"), "/problem/interval")
    mesh = Mesh1D(a, b, _number(_field(p, "n_elems", "/problem"), "/problem/n_elems", int))
    diffusion = _coefficient(_field(p, "diffusion", "/problem"), grid, "/problem/diffusion")
    obstacle = p.get("obstacle")
    if isinstance(obstacle, dict):
        obstacle = _coefficient(obstacle, grid, "/problem/obstacle")
    elif obstacle is not None:
        obstacle = _array(obstacle, "/problem/obstacle")
    boundary = _pair(p.get("boundary", [0.0, 0.0]), "/problem/boundary")
    rhs = p.get("rhs", 0.0)
    rhs = (_coefficient(rhs, grid, "/problem/rhs") if isinstance(rhs, dict)
           else _number(rhs, "/problem/rhs"))
    return ProblemSpec(
        grid=grid,
        mesh=mesh,
        diffusion=diffusion,
        rhs=rhs,
        potential=_coefficient(p.get("potential"), grid, "/problem/potential"),
        point_loads=tuple(_pairs(p.get("point_loads", []), "/problem/point_loads")),
        obstacle=obstacle,
        boundary=boundary,
    )


class _UsageError(Exception):
    """A command line that no command accepts; ``main`` prints it and exits 1."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise ``_UsageError`` instead of
    exiting the process.  ``main`` answers ``--help`` before parsing, so
    the option here only lists it."""

    def __init__(self, name: str, doc: str):
        super().__init__(prog=f"gennet {name}", description=doc, add_help=False,
                         allow_abbrev=False)
        self.add_argument("--help", action="store_true", help="Show this message and exit.")

    def error(self, message):
        raise _UsageError(message)


# command name -> (its parser, the body that takes the parsed arguments and
# returns the exit code); the parsers are built once, at import
_COMMANDS: dict = {}


def _command(name: str, doc: str, run) -> _Parser:
    parser = _Parser(name, doc)
    _COMMANDS[name] = (parser, run)
    return parser


def _input_file(path: str) -> str:
    """``path`` if it names an existing file that is no directory."""
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"file {path!r} is a directory")
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"file {path!r} does not exist")
    return path


def _output_dir(path: str) -> str:
    """``path`` unless it names an existing plain file."""
    if os.path.isfile(path):
        raise argparse.ArgumentTypeError(f"directory {path!r} is a file")
    return path


def _seed(text: str) -> int:
    """A seed for ``np.random.default_rng``: an integer ≥ 0."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {seed}")
    return seed


def _config_command(name: str, **extra_options):
    """Register ``body`` as the config command ``name``.

    The command takes --config, --out and --grid-K, then one ``--<key>``
    option per ``extra_options`` item, whose value holds the keyword
    arguments of ``add_argument``.  It reads the config with the grid and
    numeric policy it declares, makes the output directory and calls
    ``body(cfg, grid, policy, out, **extra)``, ``extra`` keyed like
    ``extra_options``.  The body writes its tables into ``out`` and returns
    its summary fields, ``verdicts`` among them.  The command then adds
    ``command`` and ``timings.total_s``, writes ``<name>_summary.json`` and
    exits 0 when every verdict holds, 2 otherwise.
    """
    def register(body):
        def run(args):
            t0 = time.perf_counter()
            cfg = _load_config(args.config)
            grid = _build_grid(cfg, args.grid_k)
            policy = _build_policy(cfg, grid)
            _make_out_dir(args.out)
            summary = body(cfg, grid, policy, args.out,
                           **{key: getattr(args, key) for key in extra_options})
            summary["command"] = name
            summary.setdefault("timings", {})["total_s"] = time.perf_counter() - t0
            path = os.path.join(args.out, f"{name}_summary.json")
            with _open_output(path) as fh:
                fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
            ok = all(bool(v) for v in summary["verdicts"].values())
            print(f"{name}: {'ok' if ok else 'FAILED'} ({path})")
            return 0 if ok else 2

        parser = _command(name, body.__doc__, run)
        parser.add_argument("--config", required=True, type=_input_file, metavar="FILE",
                            help="JSON config file.")
        parser.add_argument("--out", default=".", type=_output_dir, metavar="DIR",
                            help="Output directory for CSV and summary files.")
        parser.add_argument("--grid-K", dest="grid_k", type=int, metavar="N",
                            help="Override the number of grid points.")
        for key, kwargs in extra_options.items():
            parser.add_argument(f"--{key}", **kwargs)
        return body
    return register


@_config_command("gennum-check")
def gennum_check(cfg, grid, policy, out):
    """Valuations, sharp norms, and negligibility/moderateness verdicts."""
    specs = cfg.get("nets")
    if not isinstance(specs, list) or not specs:
        raise ConfigInvalid("/nets: must be a nonempty list")
    samples = np.stack([_scalar_net(s, grid, f"/nets/{j}").samples
                        for j, s in enumerate(specs)])
    write_grid_csv(os.path.join(out, "nets.csv"), grid,
                   [f"net{j}" for j in range(len(samples))], np.real(samples))
    verdicts = net_verdicts(samples, grid, policy)
    rows = [{"net": j, "valuation": v, "sharp_norm": n, "negligible": neg, "moderate": mod}
            for j, (v, n, neg, mod) in enumerate(zip(*(f.tolist() for f in verdicts)))]
    return {
        "results": rows,
        "valuations": {f"net{r['net']}": r["valuation"] for r in rows},
        "verdicts": {},
    }


@_config_command("classify-op")
def classify_op(cfg, grid, policy, out):
    """Isometric / unitary / self-adjoint / projection flags for an operator net."""
    T = _operator_net(cfg.get("operator"), grid)
    flags = classify_operator(T, policy)
    norms = op_norm_net(T)
    write_grid_csv(os.path.join(out, "opnorm.csv"), grid, ["op_norm"], [norms.samples])
    return {
        "flags": {key: bool(v) for key, v in flags.items()},
        "valuations": {"op_norm": float(valuation_estimate(norms, policy))},
        "verdicts": {},
    }


@_config_command("gram-schmidt", seed=dict(
    default=0, type=_seed, metavar="N",
    help="Seed for the /random generators (default: %(default)s)."))
def gram_schmidt(cfg, grid, policy, out, seed):
    """Orthogonalize a generator set; exit 2 if no uniform scale exists."""
    gens = _generators(cfg, grid, seed)
    t_gs = time.perf_counter()
    result = classify_submodule(GeneratorSet(gens), policy)
    gram_schmidt_s = time.perf_counter() - t_gs
    vecs = result.basis.vecs if result.basis is not None else []
    t_csv = time.perf_counter()
    write_grid_csv(os.path.join(out, "basis.csv"), grid,
                   [f"v{j}_c{i}" for j, w in enumerate(vecs) for i in range(w.dim)],
                   [col for w in vecs for col in np.real(w.samples).T])
    csv_s = time.perf_counter() - t_csv
    valuations = {}
    if vecs:
        norms = np.linalg.norm(np.stack([w.samples for w in vecs]), axis=2)
        valuations = {f"v{j}_norm": v for j, v in
                      enumerate(net_verdicts(norms, grid, policy).valuation.tolist())}
    return {
        "closed_edged": result.closed_edged,
        "diagnostics": result.diagnostics,
        "supports": [sorted(S.members) for S in result.basis.supports]
        if result.basis is not None else None,
        "valuations": valuations,
        "verdicts": {"closed_edged": result.closed_edged},
        "timings": {"gram_schmidt_s": gram_schmidt_s, "csv_s": csv_s},
    }


def _generators(cfg: dict, grid: EpsGrid, seed: int) -> list:
    if "random" in cfg:
        r = cfg["random"]
        if not isinstance(r, dict):
            raise ConfigInvalid("/random: must be an object")
        rng = np.random.default_rng(seed)
        m = _number(_field(r, "m", "/random"), "/random/m", int)
        d = _number(_field(r, "d", "/random"), "/random/d", int)
        powers = _array(r.get("powers", [0] * m), "/random/powers")
        if powers.shape != (m,):
            raise ConfigInvalid("/random/powers: must list one exponent per generator")
        vecs = rng.standard_normal((m, d))
        return [
            GenVector(grid, grid.values[:, None] ** p * v[None, :])
            for p, v in zip(powers.tolist(), vecs)
        ]
    specs = cfg.get("generators")
    if not isinstance(specs, list) or not specs:
        raise ConfigInvalid("/generators: need a nonempty list (or a /random object)")
    gens = []
    for j, s in enumerate(specs):
        ptr = f"/generators/{j}"
        if not isinstance(s, dict):
            raise ConfigInvalid(f"{ptr}: must be an object")
        kind = s.get("kind")
        if kind == "constant":
            gens.append(GenVector.constant(_array(_field(s, "vector", ptr), f"{ptr}/vector"),
                                           grid))
        elif kind == "power_scaled":
            v = _array(_field(s, "vector", ptr), f"{ptr}/vector")
            p = _number(s.get("power", 0.0), f"{ptr}/power")
            gens.append(GenVector(grid, grid.values[:, None] ** p * v[None, :]))
        elif kind == "power_tower":
            # sample norm eps_k^k: scales drift without bound across the grid
            v = _array(_field(s, "vector", ptr), f"{ptr}/vector")
            v = v / np.linalg.norm(v)
            ks = np.arange(1, grid.K + 1, dtype=float)
            gens.append(GenVector(grid, (grid.values ** ks)[:, None] * v[None, :]))
        elif kind == "samples":
            vals = _array(_field(s, "values", ptr), f"{ptr}/values")
            if vals.ndim != 2 or vals.shape[0] != grid.K:
                raise ConfigInvalid(f"{ptr}/values: must be (K, d)")
            gens.append(GenVector(grid, vals))
        else:
            raise ConfigInvalid(f"{ptr}/kind: unknown generator kind {kind!r}")
    return gens


@_config_command("vi-solve")
def vi_solve(cfg, grid, policy, out):
    """Projected contraction iteration for a small variational inequality."""
    t0 = time.perf_counter()
    T = _operator_net(cfg.get("operator"), grid)
    rhs = cfg.get("rhs")
    if not isinstance(rhs, list):
        raise ConfigInvalid("/rhs: must be a vector (list of numbers)")
    c = GenVector.constant(_array(rhs, "/rhs"), grid)
    C = _convex_set(cfg.get("set"), grid)
    cert = certify_coercivity(T, policy)
    sol = vi_solve_contraction(T, c, C, cert, policy)
    solve_s = time.perf_counter() - t0
    sol.write_iterations_csv(os.path.join(out, "iterations.csv"))
    write_grid_csv(os.path.join(out, "solution.csv"), grid,
                   [f"u{i}" for i in range(sol.u.dim)], sol.u.samples.T)
    u_norm = GenScalar(grid, np.linalg.norm(sol.u.samples, axis=1))
    return {
        "certificate": cert.to_json(),
        "max_iterations": int(sol.iterations.max()),
        "max_residual": float(sol.residual.samples.max()),
        "valuations": {"u_norm": float(valuation_estimate(u_norm, policy))},
        "verdicts": {"coercive": cert.valid},
        "timings": {"solve_s": solve_s},
    }


def _convex_set(spec, grid: EpsGrid) -> ConvexSetNet:
    if not isinstance(spec, dict):
        raise ConfigInvalid("/set: must be an object")
    kind = spec.get("kind")
    if kind == "box":
        return ConvexSetNet.box(grid, _array(_field(spec, "lower", "/set"), "/set/lower"),
                                _array(_field(spec, "upper", "/set"), "/set/upper"))
    if kind == "obstacle":
        return ConvexSetNet.obstacle(grid, _array(_field(spec, "lower", "/set"), "/set/lower"))
    raise ConfigInvalid(f"/set/kind: unknown set kind {kind!r}")


def _fem_summary(solve, cfg, grid, policy, out) -> dict:
    """Solve the config's problem with ``solve``, write the result's tables,
    and return its summary fields."""
    t0 = time.perf_counter()
    result = solve(_problem(cfg, grid), policy)
    solve_s = time.perf_counter() - t0
    result.write_tables(out)
    return {
        **result.to_json(),
        "valuations": {"h1_norm": result.valuation},
        "verdicts": result.verdicts(),
        "timings": {"solve_s": solve_s},
    }


@_config_command("solve-dirichlet")
def solve_dirichlet_cmd(cfg, grid, policy, out):
    """P1 solve of -(a u')' + c u = f with Dirichlet data, per grid point."""
    return _fem_summary(solve_dirichlet, cfg, grid, policy, out)


@_config_command("solve-obstacle")
def solve_obstacle_cmd(cfg, grid, policy, out):
    """Obstacle-constrained P1 solve by a primal-dual active-set method."""
    return _fem_summary(solve_obstacle, cfg, grid, policy, out)


def report(summaries, out):
    """Merge command summaries into one table; exit 2 if any verdict failed."""
    merged = []
    for path in summaries:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise MalformedSummary(f"cannot read summary {path}: {exc}") from exc
        if not isinstance(data, dict) or not isinstance(data.get("command"), str) \
                or not isinstance(data.get("verdicts"), dict):
            raise MalformedSummary(f"{path} is not a command summary")
        if not all(isinstance(value, bool) for value in data["verdicts"].values()):
            raise MalformedSummary(f"{path}: every verdict must be true or false")
        merged.append(data)
    all_ok = True
    print(f"{'command':<16} {'verdict':<20} value")
    for data in merged:
        verdicts = data["verdicts"]
        if not verdicts:
            print(f"{data['command']:<16} {'(informational)':<20} ok")
        for name, value in sorted(verdicts.items()):
            print(f"{data['command']:<16} {name:<20} {'pass' if value else 'FAIL'}")
            all_ok = all_ok and value
    if out is not None:
        _make_out_dir(out)
        text = json.dumps({"reports": merged, "all_ok": all_ok}, indent=2, sort_keys=True)
        with _open_output(os.path.join(out, "report.json")) as fh:
            fh.write(text + "\n")
    return 0 if all_ok else 2


_report_parser = _command("report", report.__doc__,
                          lambda args: report(args.summaries, args.out))
_report_parser.add_argument("summaries", nargs="+", type=_input_file, metavar="SUMMARY",
                            help="A <command>_summary.json file.")
_report_parser.add_argument("--out", type=_output_dir, metavar="DIR",
                            help="Also write the merged report.json here.")

_TOP_HELP = "\n".join([
    "usage: gennet COMMAND [OPTIONS]",
    "",
    "Generalized-number nets: arithmetic, submodules, variational solvers.",
    "",
    "commands:",
    *(f"  {name:<16} {parser.description.splitlines()[0]}"
      for name, (parser, _) in sorted(_COMMANDS.items())),
    "",
    "Run 'gennet COMMAND --help' for a command's options.",
])


def main(argv=None) -> int:
    """Run the command line ``argv`` (default ``sys.argv[1:]``); return its exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv[:1] == ["--help"]:
            print(_TOP_HELP)
            return 0
        if not argv or argv[0] not in _COMMANDS:
            got = f"no such command {argv[0]!r}" if argv else "missing command"
            raise _UsageError(f"{got}; choose from {', '.join(sorted(_COMMANDS))}")
        parser, run = _COMMANDS[argv[0]]
        if "--help" in argv[1:]:  # before any other argument is checked
            parser.print_help()
            return 0
        return run(parser.parse_args(argv[1:]))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigInvalid, MalformedSummary, InvalidSpec, InvalidBasis) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OutputUnwritable as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    except GennetError as exc:
        print(f"verdict failure: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
