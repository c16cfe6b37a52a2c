"""Command-line interface: solve, vary, verify, area, curvature, decompose.

Configs are JSON files; field output is CSV, report output is JSON with
17-significant-digit floats so identical runs produce identical bytes.
Exit codes: 0 success, 1 verification failure, 2 usage or schema error,
3 solver non-convergence.
"""
from __future__ import annotations

import argparse
import ast
import contextlib
import json
import math
import operator
import os
import sys

import numpy as np

from . import acceptance, measures
from .geometry import graph_area_density, mean_curvature_euclidean, p_mean_curvature
from .grids import (
    CellScalarField,
    EnergySpec,
    GridDomain,
    ScalarField,
    VectorField,
    gradient,
    read_scalar_csv,
    singular_set,
    write_cell_csv,
    write_scalar_csv,
)
from .solver import SolverConfig, continuation_minimize
from .util import to_json
from .variation import DirectionField, minimizer_first_variation, second_variation_graph


class CliError(Exception):
    """A failure with a deterministic exit code and a diagnostic payload."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


# ---- config parsing ----------------------------------------------------------

# Size bound, so that no config asks for more memory than a small machine has
# (measured peaks in README): cells in a domain.  At the solver's 16 Gauss
# points per cell, it also caps a solve's per-point arrays at 4 194 304 entries
_MAX_CELLS = 512 * 512

_EXPR_NAMES = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "hypot": np.hypot,
    "tanh": np.tanh,
    "atan2": np.arctan2,
    "minimum": np.minimum,
    "maximum": np.maximum,
    "where": np.where,
    "pi": np.pi,
    "e": np.e,
}

_EXPR_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.FloorDiv: operator.floordiv,
    ast.Mod: operator.mod,
    ast.Pow: operator.pow,
    ast.UAdd: operator.pos,
    ast.USub: operator.neg,
    ast.Lt: operator.lt,
    ast.LtE: operator.le,
    ast.Gt: operator.gt,
    ast.GtE: operator.ge,
    ast.Eq: operator.eq,
    ast.NotEq: operator.ne,
}


def _eval_node(node, ns: dict):
    """Evaluate a whitelisted expression tree: numeric constants, names in
    `ns`, arithmetic, comparisons and calls of named functions."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)    # no unbounded integer arithmetic
    if isinstance(node, ast.Name):
        if node.id not in ns:
            raise CliError(2, f"unknown name {node.id!r}")
        return ns[node.id]
    if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_OPS:
        return _EXPR_OPS[type(node.op)](_eval_node(node.left, ns), _eval_node(node.right, ns))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _EXPR_OPS:
        return _EXPR_OPS[type(node.op)](_eval_node(node.operand, ns))
    if isinstance(node, ast.Compare) and all(type(op) in _EXPR_OPS for op in node.ops):
        left, out = _eval_node(node.left, ns), True
        for op, right in zip(node.ops, node.comparators):
            right = _eval_node(right, ns)
            out = np.logical_and(out, _EXPR_OPS[type(op)](left, right))
            left = right
        return out
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and not node.keywords:
        fn = _EXPR_NAMES.get(node.func.id)
        if not callable(fn):
            raise CliError(2, f"unknown function {node.func.id!r}")
        # a ufunc takes a surplus positional argument as its output array
        if isinstance(fn, np.ufunc) and len(node.args) != fn.nin:
            raise CliError(
                2, f"{node.func.id} takes {fn.nin} argument(s), got {len(node.args)}"
            )
        return fn(*(_eval_node(arg, ns) for arg in node.args))
    raise CliError(2, f"unsupported syntax: {type(node).__name__}")


def _eval_expr(expr: str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if not isinstance(expr, str):
        raise CliError(2, f"expression must be a string, got {type(expr).__name__}")
    ns = dict(_EXPR_NAMES, x=x, y=y)
    try:
        with np.errstate(all="ignore"):
            out = _eval_node(ast.parse(expr, mode="eval").body, ns)
            out = np.broadcast_to(np.asarray(out, dtype=np.float64), x.shape).copy()
    except CliError as exc:
        raise CliError(2, f"{exc.message} in expression {expr!r}") from exc
    except Exception as exc:
        raise CliError(2, f"failed to evaluate expression {expr!r}: {exc}") from exc
    if not np.isfinite(out).all():
        raise CliError(2, f"expression {expr!r} is not finite everywhere on the grid")
    return out


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise CliError(2, f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:   # also over-long integers, deep nesting
        raise CliError(2, f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise CliError(2, "config root must be a JSON object")
    return cfg


# ---- JSON values: every number the CLI reads passes one of these checks -------
# (none converts: a JSON boolean is a Python int, and a string is never a number)


def _int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _number(value, what: str) -> float:
    try:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and math.isfinite(value))
    except OverflowError:   # an integer beyond the float range
        ok = False
    if not ok:
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


def _objects(value, what: str) -> list:
    if not all(isinstance(item, dict) for item in _list(value, what)):
        raise ValueError(f"{what} must be a list of JSON objects")
    return value


def _numbers(value, what: str) -> tuple:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list of numbers, got {value!r}")
    return tuple(_number(x, f"{what} entry") for x in value)


@contextlib.contextmanager
def _invalid(prefix: str = ""):
    """Report a failed value check or constructor in the block as exit 2."""
    try:
        yield
    except KeyError as exc:
        raise CliError(2, f"{prefix}missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliError(2, f"{prefix}{exc}") from exc


def _require(cfg: dict, key: str, where: str = "config"):
    if key not in cfg:
        raise CliError(2, f"{where} is missing required key {key!r}")
    return cfg[key]


def _object(cfg: dict, key: str, default: dict) -> dict:
    value = cfg.get(key, default)
    if not isinstance(value, dict):
        raise CliError(2, f"{key} must be a JSON object, got {type(value).__name__}")
    return value


def _domain_from(cfg: dict) -> GridDomain:
    dcfg = _require(cfg, "domain")
    with _invalid("bad domain: "):
        extents = tuple(_numbers(e, "extent")
                        for e in _list(_require(dcfg, "extents", "domain"), "extents"))
        n_cells = tuple(_int(n, "n_cells entry")
                        for n in _list(_require(dcfg, "n_cells", "domain"), "n_cells"))
        dom = GridDomain(extents, n_cells)
    if dom.n_cells[0] * dom.n_cells[1] > _MAX_CELLS:
        raise CliError(2, f"bad domain: more than {_MAX_CELLS} cells")
    return dom


def _spec_from(cfg: dict, dom: GridDomain) -> EnergySpec:
    scfg = _object(cfg, "spec", {"preset": "zero"})
    preset = scfg.get("preset", "zero")
    H = scfg.get("H", 0.0)
    with _invalid("bad spec: "):
        if isinstance(H, str):
            Xc, Yc = dom.center_coords()
            H = _eval_expr(H, Xc, Yc)
        else:
            H = _number(H, "H")
        if preset == "custom":
            fexpr = _require(scfg, "F", "spec")
            if not isinstance(fexpr, list) or len(fexpr) != 2:
                raise CliError(2, "spec.F must be a list of two expressions")
            Xc, Yc = dom.center_coords()
            F = np.stack([_eval_expr(fexpr[0], Xc, Yc), _eval_expr(fexpr[1], Xc, Yc)], axis=-1)
            return EnergySpec(preset="custom", F_field=VectorField(dom, F), H=H)
        return EnergySpec(preset=preset, H=H)


def _scalar_field(fcfg: dict, dom: GridDomain, what: str) -> ScalarField:
    if not isinstance(fcfg, dict):
        raise CliError(2, f"{what} must be an object with 'expression' or 'csv'")
    if "expression" in fcfg:
        X, Y = dom.node_coords()
        return ScalarField(dom, _eval_expr(fcfg["expression"], X, Y))
    if "csv" in fcfg:
        if not isinstance(fcfg["csv"], str):
            raise CliError(2, f"{what}.csv must be a path string")
        try:
            f = read_scalar_csv(fcfg["csv"])
        except OSError as exc:
            raise CliError(2, f"cannot read {what} CSV: {exc}") from exc
        except ValueError as exc:
            raise CliError(2, f"bad {what} CSV: {exc}") from exc
        if f.dom != dom:
            raise CliError(2, f"{what} CSV grid does not match the configured domain")
        return f
    raise CliError(2, f"{what} needs either 'expression' or 'csv'")


_SOLVER_OPTIONS = dict(a_schedule=_numbers, newton_tol=_number, max_newton_iters=_int,
                       continuation_stop=_number)


def _solver_config(cfg: dict) -> SolverConfig:
    options = _object(cfg, "solver", {})
    with _invalid("bad solver config: "):
        for key in options:
            if key not in _SOLVER_OPTIONS:
                raise ValueError(f"unknown solver option {key!r}")
        return SolverConfig(**{key: _SOLVER_OPTIONS[key](value, key)
                               for key, value in options.items()})


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        fh.write(to_json(obj))
        fh.write("\n")


def _solve_from_config(cfg: dict):
    dom = _domain_from(cfg)
    scfg = _solver_config(cfg)
    spec = _spec_from(cfg, dom)
    phi = _scalar_field(_require(cfg, "boundary"), dom, "boundary")
    res = continuation_minimize(dom, spec, phi, scfg)
    return dom, spec, phi, res


# ---- subcommands ---------------------------------------------------------------


def cmd_solve(cfg: dict, seed: int, out: str) -> int:
    dom, spec, phi, res = _solve_from_config(cfg)
    write_scalar_csv(res.u, os.path.join(out, "solution.csv"))
    sing = singular_set(res.u, spec)
    report = {
        "command": "solve",
        "seed": seed,
        "converged": res.converged,
        "energy": res.energy,
        "energy_regularized": res.energy_regularized,
        "residual": res.residual_norm,
        "a_final": res.a_final,
        "iterations": res.iterations,
        "stages": [
            {"a": a, "iterations": it, "stage_diff": diff} for a, it, diff in res.stages
        ],
        "singular_set_measure": sing.measure,
        "singular_cells": int(sing.mask.sum()),
    }
    _write_json(os.path.join(out, "report.json"), report)
    if not res.converged:
        raise CliError(3, "solver did not converge; see report.json")
    return 0


def cmd_vary(cfg: dict, seed: int, out: str) -> int:
    dcfg = _object(cfg, "direction", {"random": True})
    random = dcfg.get("random", False)
    if not isinstance(random, bool):
        raise CliError(2, f"direction.random must be a boolean, got {random!r}")
    dom, spec, phi, res = _solve_from_config(cfg)
    if random:
        rng = np.random.RandomState(seed)
        direction = acceptance._rand_direction(dom, rng)
    elif "expression" in dcfg:
        raw = _scalar_field(dcfg, dom, "direction")
        vals = raw.values.copy()
        vals[dom.boundary_mask()] = 0.0
        direction = DirectionField(ScalarField(dom, vals))
    else:
        raise CliError(2, "direction needs 'expression' or 'random': true")
    rep = minimizer_first_variation(res.u, spec, direction)
    report = {
        "command": "vary",
        "seed": seed,
        "converged": res.converged,
        "F_value": rep.F_value,
        "Fprime_minus": rep.Fprime_minus,
        "Fprime_plus": rep.Fprime_plus,
        "Fsecond": rep.Fsecond,
        "epsilon": rep.epsilon,
        "is_regular": rep.is_regular,
        "second_variation_area": second_variation_graph(res.u, spec, direction, "area"),
        "second_variation_lifted": second_variation_graph(res.u, spec, direction, "riemannian"),
    }
    _write_json(os.path.join(out, "vary_report.json"), report)
    if not res.converged:
        raise CliError(3, "solver did not converge; see vary_report.json")
    return 0


def cmd_verify(cfg: dict, seed: int, out: str) -> int:
    profile = cfg.get("profile", "full")
    if not isinstance(profile, str):
        raise CliError(2, f"profile must be a string, got {type(profile).__name__}")
    override = cfg.get("threshold_override", None)
    if override is not None:
        with _invalid():
            override = _number(override, "threshold_override")
    try:
        report = acceptance.run_all(seed=seed, profile=profile, threshold_override=override)
    except ValueError as exc:
        raise CliError(2, str(exc)) from exc
    _write_json(os.path.join(out, "verify_report.json"), report)
    failures = [
        f"{c['id']}: {row['check']} ({row['value']:.6g} > {row['threshold']:.6g})"
        for c in report["criteria"]
        for row in c["checks"]
        if not row["ok"]
    ]
    for line in failures:
        print(f"FAIL {line}")
    print(f"{'PASS' if report['all_passed'] else 'FAIL'}: "
          f"{sum(c['passed'] for c in report['criteria'])}/{len(report['criteria'])} criteria")
    return 0 if report["all_passed"] else 1


def _density_field(cfg: dict, dom: GridDomain) -> CellScalarField:
    kind = _require(cfg, "kind")
    if kind not in ("euclidean", "heisenberg", "intrinsic"):
        raise CliError(2, f"unknown density kind {kind!r}")
    u = _scalar_field(_require(cfg, "field"), dom, "field")
    g = gradient(u).values
    if kind == "intrinsic":
        point, jet = None, np.stack([u.cell_average(), g[..., 0], g[..., 1]], axis=-1)
    else:
        point, jet = np.stack(dom.center_coords(), axis=-1), g
    vals = graph_area_density(kind, point, jet)
    return CellScalarField(dom, vals, np.ones(vals.shape, dtype=bool))


def cmd_area(cfg: dict, seed: int, out: str) -> int:
    dom = _domain_from(cfg)
    dens = _density_field(cfg, dom)
    write_cell_csv(dens, os.path.join(out, "density.csv"))
    report = {
        "command": "area",
        "seed": seed,
        "kind": cfg["kind"],
        "min_density": float(dens.values.min()),
        "max_density": float(dens.values.max()),
        "cells": int(dens.values.size),
    }
    _write_json(os.path.join(out, "report.json"), report)
    return 0


def cmd_curvature(cfg: dict, seed: int, out: str) -> int:
    dom = _domain_from(cfg)
    op = cfg.get("operator", "euclidean")
    u = _scalar_field(_require(cfg, "field"), dom, "field")
    if op == "euclidean":
        field = mean_curvature_euclidean(u)
    elif op == "horizontal":
        field = p_mean_curvature(u, _spec_from(cfg, dom) if "spec" in cfg else None)
    else:
        raise CliError(2, f"unknown curvature operator {op!r}")
    write_cell_csv(field, os.path.join(out, "curvature.csv"))
    valid = field.values[field.mask]
    report = {
        "command": "curvature",
        "seed": seed,
        "operator": op,
        "valid_cells": int(field.mask.sum()),
        "masked_cells": int((~field.mask).sum()),
        "min": float(valid.min()) if valid.size else None,
        "max": float(valid.max()) if valid.size else None,
    }
    _write_json(os.path.join(out, "report.json"), report)
    return 0


def _measure_from(cfg, what: str) -> measures.VectorMeasure:
    """A measure from `{"d", "cells": [{"id", "weight", "density"}], "atoms":
    [{"site", "mass"}]}`: cell ids 0..n-1 each once, atom sites strings."""
    data = cfg
    if isinstance(data, dict) and "path" in data:
        if not isinstance(data["path"], str):
            raise CliError(2, f"{what}.path must be a string")
        data = _load_config(data["path"])
    with _invalid(f"bad {what} measure: "):
        if not isinstance(data, dict):
            raise ValueError("a measure must be a JSON object")
        d = _int(data["d"], "d")
        cells = _objects(data["cells"], "cells")
        by_id = {_int(c["id"], "cell id"): c for c in cells}
        if sorted(by_id) != list(range(len(cells))):
            raise ValueError("cell ids must be 0..n-1, each used once")
        cells = [by_id[i] for i in range(len(cells))]
        density = [_numbers(c["density"], "cell density") for c in cells]
        if any(len(row) != d for row in density):
            raise ValueError(f"each cell density must have d = {d} entries")
        atoms = []
        for atom in _objects(data.get("atoms", []), "atoms"):
            if not isinstance(atom["site"], str):
                raise ValueError(f"atom sites must be strings, got {atom['site']!r}")
            atoms.append((atom["site"], _numbers(atom["mass"], "atom mass")))
        weights = [_number(c["weight"], "cell weight") for c in cells]
        # (0, 0) for d < 1 and no cells: VectorMeasure refuses d < 1 itself
        density = np.array(density, dtype=np.float64).reshape(len(cells), max(d, 0))
        return measures.VectorMeasure(d, weights, density, tuple(atoms))


def _measure_json(m: measures.VectorMeasure) -> dict:
    return {
        "d": m.dimension,
        "cells": [
            {"id": i, "weight": w, "density": row}
            for i, (w, row) in enumerate(zip(m.cell_weights.tolist(), m.ac_density.tolist()))
        ],
        "atoms": [{"site": site, "mass": mass.tolist()} for site, mass in m.atoms],
    }


def cmd_decompose(cfg: dict, seed: int, out: str) -> int:
    mu = _measure_from(_require(cfg, "mu"), "mu")
    nu = _measure_from(_require(cfg, "nu"), "nu")
    with _invalid():
        eps = _number(cfg.get("eps", 0.0), "eps")
    try:
        dec = measures.decompose(nu, measures.add_scaled(mu, nu, eps) if eps else mu)
        fm, fp = measures.first_variation_pm(mu, nu, eps)
        report = {
            "command": "decompose",
            "seed": seed,
            "eps": eps,
            "density_N": dec.N.tolist(),
            "density_A": dec.A.tolist(),
            "singular_part": _measure_json(dec.nu_s),
            "support": dec.support.tolist(),
            "sites": [str(s) for s in dec.sites],
            "total_variation_mu": measures.total_variation(mu),
            "line_energy": measures.line_energy(mu, nu, eps),
            "Fprime_minus": fm,
            "Fprime_plus": fp,
            "Fsecond": measures.second_variation(mu, nu, eps),
            "singular_epsilons": measures.singular_epsilons(mu, nu),
        }
    except ValueError as exc:
        raise CliError(2, f"incompatible measures: {exc}") from exc
    _write_json(os.path.join(out, "decompose_report.json"), report)
    return 0


# ---- entry point ---------------------------------------------------------------

_COMMANDS = {
    "solve": (cmd_solve, "minimize the area energy for Dirichlet data"),
    "vary": (cmd_vary, "solve, then report first/second variation along a direction"),
    "verify": (cmd_verify, "run the acceptance suite and report pass/fail"),
    "area": (cmd_area, "evaluate an area density over a grid"),
    "curvature": (cmd_curvature, "evaluate a mean-curvature field over a grid"),
    "decompose": (cmd_decompose, "decompose a measure pair and report derivatives"),
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="areavar",
        description="generalized-area functionals: solver, variation, geometry",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument(
            "--config",
            required=(name != "verify"),
            help="path to the JSON run configuration",
        )
        sp.add_argument("--out", default=".", help="output directory (default: .)")
        sp.add_argument("--seed", type=int, default=None, help="RNG seed recorded in reports")
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = _load_config(args.config) if args.config else {}
        default_seed = 2026 if args.command == "verify" else 0
        seed = args.seed if args.seed is not None else cfg.get("seed", default_seed)
        with _invalid():
            if not 0 <= _int(seed, "seed") < 2**32:
                raise ValueError(f"seed must be in [0, 2**32), got {seed!r}")
        out = args.out or "."
        os.makedirs(out, exist_ok=True)
        return _COMMANDS[args.command][0](cfg, seed, out)
    except CliError as exc:
        code, message = exc.code, exc.message
    except OSError as exc:
        code, message = 2, str(exc)
    # one line, so it stays parseable after any warnings printed before it
    diag = {"error": message, "exit_code": code, "command": args.command}
    print(json.dumps(diag, sort_keys=True), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
