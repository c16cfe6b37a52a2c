import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from areavar import acceptance
from areavar import solver as solver_module
from areavar.cli import main
from areavar.grids import GridDomain, ScalarField, read_scalar_csv, write_scalar_csv

FIXTURES = Path(__file__).parent / "fixtures"


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def load(path):
    with open(path) as fh:
        return json.load(fh)


SOLVE_XY = {
    "domain": {"extents": [[-1, 1], [-1, 1]], "n_cells": [48, 48]},
    "spec": {"preset": "p_area"},
    "boundary": {"expression": "x*y"},
    "seed": 7,
}


def test_solve_xy(tmp_path):
    cfg = write_cfg(tmp_path, "solve.json", SOLVE_XY)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    rep = load(out / "report.json")
    assert rep["command"] == "solve"
    assert rep["seed"] == 7
    assert rep["converged"] is True
    h = 2.0 / 48
    assert abs(rep["singular_set_measure"] - 2.0 * h * 2.0) <= 1e-12
    assert abs(rep["energy"] - 4.0) <= 0.04
    assert rep["residual"] <= 1e-10
    assert rep["stages"]
    u = read_scalar_csv(out / "solution.csv")
    assert u.values.shape == (49, 49)
    xs = u.dom.axis_nodes(0)
    assert np.abs(u.values - xs[:, None] * u.dom.axis_nodes(1)[None, :]).max() <= 1e-6


def test_solve_seed_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path, "solve.json", SOLVE_XY)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out), "--seed", "99"]) == 0
    assert load(out / "report.json")["seed"] == 99


def test_solve_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--config", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    diag = json.loads(err)
    assert diag["exit_code"] == 2 and "JSON" in diag["error"]


def test_solve_missing_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "solve.json", {"domain": SOLVE_XY["domain"]})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "boundary" in json.loads(capsys.readouterr().err)["error"]


def test_solve_bad_expression(tmp_path, capsys):
    payload = dict(SOLVE_XY, boundary={"expression": "__import__('os')"})
    cfg = write_cfg(tmp_path, "solve.json", payload)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "expression",
    [
        "(lambda: ().__class__.__mro__[-1].__subclasses__().__len__())() * 0 + x",
        "x.__class__",
        "[x][0]",
        "10**10**10",
        "foo(x)",
        "sin(x, y) + y",     # a surplus ufunc argument would be taken as out=
        "hypot(x, y, x)",
        "sin()",
    ],
)
def test_solve_rejects_hostile_expressions(tmp_path, capsys, expression):
    payload = dict(SOLVE_XY, boundary={"expression": expression})
    cfg = write_cfg(tmp_path, "solve.json", payload)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert json.loads(capsys.readouterr().err)["exit_code"] == 2


def test_expression_grammar(tmp_path):
    payload = {
        "domain": {"extents": [[-1, 1], [-1, 1]], "n_cells": [8, 8]},
        "kind": "euclidean",
        "field": {"expression": "where(0 < x <= 0.5, -x**2 % 1, 2.0*pi*y // 1) + hypot(+x, e)"},
    }
    cfg = write_cfg(tmp_path, "area.json", payload)
    assert main(["area", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_solve_nonfinite_boundary(tmp_path, capsys):
    payload = dict(SOLVE_XY, boundary={"expression": "log(x)"})
    cfg = write_cfg(tmp_path, "solve.json", payload)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    diag = json.loads(capsys.readouterr().err)
    assert diag["exit_code"] == 2 and "finite" in diag["error"]


@pytest.mark.parametrize(
    "solver, message",
    [
        ({"cg_rtol": 1e-12}, "unknown solver option"),
        ({"line_search_factor": 1.5}, "unknown solver option"),   # removed option
        ({"newton_tol": -1}, "newton_tol"),
        ({"max_newton_iters": 0}, "max_newton_iters"),
        # JSON values are not coerced: counts are integers, reals are numbers
        ({"max_newton_iters": 2.7}, "max_newton_iters must be an integer"),
        ({"line_search_max": 3.9}, "unknown solver option"),     # removed option
        ({"quad_order": True}, "unknown solver option"),         # removed option
        ({"newton_tol": "1e-10"}, "newton_tol must be a finite number"),
        ({"a_schedule": "1"}, "a_schedule must be a list of numbers"),
        ({"a_schedule": {"1": 0}}, "a_schedule must be a list of numbers"),
        ({"newton_tol": math.inf}, "newton_tol must be a finite number"),
        ({"a_schedule": [math.inf, 1]}, "a_schedule entry must be a finite number"),
        ({"continuation_stop": math.inf}, "continuation_stop must be a finite number"),
    ],
)
def test_solve_bad_solver_options(tmp_path, capsys, solver, message):
    payload = dict(SOLVE_XY, solver=solver)
    cfg = write_cfg(tmp_path, "solve.json", payload)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    diag = json.loads(capsys.readouterr().err)
    assert diag["exit_code"] == 2 and "bad solver config" in diag["error"]
    assert message in diag["error"]


def test_solve_nonconvergence_exit_code(tmp_path):
    payload = dict(
        SOLVE_XY,
        boundary={"expression": "sin(4*x)*cos(3*y)"},
        solver={"a_schedule": [0.01], "max_newton_iters": 1},
    )
    cfg = write_cfg(tmp_path, "solve.json", payload)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
    assert load(out / "report.json")["converged"] is False


def _fail_band(ab, **kwargs):
    return ab, 1                    # dpbtrf's info: a non-positive pivot


def _fail_superlu(*args, **kwargs):
    raise RuntimeError("Factor is exactly singular")


@pytest.mark.parametrize("n, module, name, fail", [
    (16, solver_module, "dpbtrf", _fail_band),      # band Cholesky grid
    (65, spla, "splu", _fail_superlu),              # nested-dissection grid
])
def test_solve_failed_factorization_exit_3(tmp_path, capsys, monkeypatch, n, module, name, fail):
    monkeypatch.setattr(module, name, fail)
    payload = dict(SOLVE_XY, domain={"extents": [[-1, 1], [-1, 1]], "n_cells": [n, n]},
                   boundary={"expression": "x*y + 0.3*sin(2*x + 0.3*y)"})
    cfg = write_cfg(tmp_path, "solve.json", payload)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
    rep = load(out / "report.json")
    assert rep["converged"] is False and rep["iterations"] == 0
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert json.loads(line)["exit_code"] == 3


@pytest.mark.parametrize(
    "boundary, schedule",
    [("1e300*x", [1]), ("x*y", [1e308, 1e300])],
)
def test_solve_overflowing_energy_exit_3(tmp_path, capsys, boundary, schedule):
    # the energy overflows to inf, whose gradient (and residual) is exactly 0
    payload = dict(SOLVE_XY, domain=GRID4, boundary={"expression": boundary},
                   solver={"a_schedule": schedule})
    cfg = write_cfg(tmp_path, "solve.json", payload)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
    rep = load(out / "report.json")
    assert rep["converged"] is False and rep["energy_regularized"] is None
    # the diagnostic is the only stderr line: no numpy overflow warning
    assert [str(w.message) for w in caught] == []
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert json.loads(line)["exit_code"] == 3


@pytest.mark.parametrize(
    "text",
    ['{"seed": ' + "1" * 5000 + "}",     # beyond Python's integer conversion limit
     "[" * 100000 + "]" * 100000,       # deeper than the recursion limit
     b"\xff\xfe{}"],
    ids=["long_integer", "deep_nesting", "not_text"],
)
def test_unparseable_config_exit_2(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["area", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert "not valid JSON" in json.loads(line)["error"]


def test_usage_errors():
    assert main(["frobnicate"]) == 2
    assert main(["solve"]) == 2  # --config is required
    assert main(["solve", "--config", "x.json", "--bogus-flag"]) == 2


def test_missing_config_file(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "absent.json")]) == 2
    assert json.loads(capsys.readouterr().err)["exit_code"] == 2


def test_vary_plane_sandwich(tmp_path):
    payload = {
        "domain": {"extents": [[-1, 1], [-1, 1]], "n_cells": [32, 32]},
        "spec": {"preset": "p_area"},
        "boundary": {"expression": "2*x - y + 1"},
        "direction": {"random": True},
        "seed": 3,
    }
    cfg = write_cfg(tmp_path, "vary.json", payload)
    out = tmp_path / "out"
    assert main(["vary", "--config", cfg, "--out", str(out)]) == 0
    rep = load(out / "vary_report.json")
    tol = 1e-4 * (1.0 + rep["F_value"])
    assert rep["Fprime_minus"] <= tol
    assert rep["Fprime_plus"] >= -tol
    assert rep["Fsecond"] >= 0.0
    assert rep["second_variation_area"] >= 0.0
    assert rep["second_variation_lifted"] >= 0.0


def test_vary_explicit_direction(tmp_path):
    payload = {
        "domain": {"extents": [[-1, 1], [-1, 1]], "n_cells": [24, 24]},
        "spec": {"preset": "p_area"},
        "boundary": {"expression": "0.5*x"},
        "direction": {"expression": "(1 - x*x) * (1 - y*y)"},
    }
    cfg = write_cfg(tmp_path, "vary.json", payload)
    out = tmp_path / "out"
    assert main(["vary", "--config", cfg, "--out", str(out)]) == 0
    rep = load(out / "vary_report.json")
    assert rep["Fprime_minus"] <= rep["Fprime_plus"]


def test_area_intrinsic_constant_density(tmp_path):
    payload = {
        "domain": {"extents": [[-1, 1], [-1, 1]], "n_cells": [32, 32]},
        "kind": "intrinsic",
        "field": {"expression": "x"},
    }
    cfg = write_cfg(tmp_path, "area.json", payload)
    out = tmp_path / "out"
    assert main(["area", "--config", cfg, "--out", str(out)]) == 0
    rep = load(out / "report.json")
    assert abs(rep["min_density"] - math.sqrt(2.0)) <= 1e-12
    assert abs(rep["max_density"] - math.sqrt(2.0)) <= 1e-12
    lines = (out / "density.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 32 * 32


def test_area_heisenberg_xy(tmp_path):
    payload = {
        "domain": {"extents": [[-1, 1], [-1, 1]], "n_cells": [16, 16]},
        "kind": "heisenberg",
        "field": {"expression": "x*y"},
    }
    cfg = write_cfg(tmp_path, "area.json", payload)
    out = tmp_path / "out"
    assert main(["area", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "density.csv").read_text().strip().splitlines()[1:]
    for row in lines:
        _, _, x, _, v = row.split(",")
        assert abs(float(v) - 2.0 * abs(float(x))) <= 1e-12


def test_area_unknown_kind(tmp_path):
    payload = {
        "domain": {"extents": [[-1, 1], [-1, 1]], "n_cells": [8, 8]},
        "kind": "klein",
        "field": {"expression": "x"},
    }
    cfg = write_cfg(tmp_path, "area.json", payload)
    assert main(["area", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_curvature_sphere_cap(tmp_path):
    payload = {
        "domain": {"extents": [[-0.6, 0.6], [-0.6, 0.6]], "n_cells": [64, 64]},
        "operator": "euclidean",
        "field": {"expression": "sqrt(1 - x*x - y*y)"},
    }
    cfg = write_cfg(tmp_path, "curv.json", payload)
    out = tmp_path / "out"
    assert main(["curvature", "--config", cfg, "--out", str(out)]) == 0
    rep = load(out / "report.json")
    assert rep["valid_cells"] == 62 * 62
    assert abs(rep["min"] + 2.0) <= 0.04 and abs(rep["max"] + 2.0) <= 0.04


def test_curvature_horizontal_xy(tmp_path):
    payload = {
        "domain": {"extents": [[-1, 1], [-1, 1]], "n_cells": [32, 32]},
        "operator": "horizontal",
        "field": {"expression": "x*y"},
    }
    cfg = write_cfg(tmp_path, "curv.json", payload)
    out = tmp_path / "out"
    assert main(["curvature", "--config", cfg, "--out", str(out)]) == 0
    rep = load(out / "report.json")
    assert rep["masked_cells"] > 0
    assert rep["min"] == 0.0 and rep["max"] == 0.0


def test_decompose_orthogonal_pair(tmp_path):
    measure = lambda dens: {
        "d": 2,
        "cells": [{"id": 0, "weight": 1.0, "density": dens}],
        "atoms": [],
    }
    payload = {"mu": measure([1.0, 0.0]), "nu": measure([0.0, 1.0]), "eps": 0.0}
    cfg = write_cfg(tmp_path, "dec.json", payload)
    out = tmp_path / "out"
    assert main(["decompose", "--config", cfg, "--out", str(out)]) == 0
    rep = load(out / "decompose_report.json")
    assert rep["density_N"] == [[1.0, 0.0]]
    assert rep["density_A"] == [[0.0, 1.0]]
    assert rep["total_variation_mu"] == 1.0
    assert rep["line_energy"] == 1.0
    assert rep["Fprime_minus"] == 0.0 and rep["Fprime_plus"] == 0.0
    assert rep["Fsecond"] == 1.0
    assert rep["singular_epsilons"] == []
    assert rep["support"] == [True]


def test_decompose_report_bytes(tmp_path):
    # atoms on shared and disjoint sites, -0.0, 1e-300, a tie in |nu|; the
    # expected report is the output of the per-entry implementation
    out = tmp_path / "out"
    cfg = str(FIXTURES / "decompose_atoms.json")
    assert main(["decompose", "--config", cfg, "--out", str(out)]) == 0
    expected = (FIXTURES / "decompose_atoms_report.json").read_bytes()
    assert (out / "decompose_report.json").read_bytes() == expected


def test_decompose_from_path_and_errors(tmp_path, capsys):
    mu_path = tmp_path / "mu.json"
    mu_path.write_text(
        json.dumps({"d": 2, "cells": [{"id": 0, "weight": 1.0, "density": [3.0, 4.0]}]})
    )
    payload = {
        "mu": {"path": str(mu_path)},
        "nu": {"d": 2, "cells": [{"id": 0, "weight": 1.0, "density": [0.0, 0.0]}]},
    }
    cfg = write_cfg(tmp_path, "dec.json", payload)
    out = tmp_path / "out"
    assert main(["decompose", "--config", cfg, "--out", str(out)]) == 0
    assert load(out / "decompose_report.json")["total_variation_mu"] == 5.0

    bad = {"mu": {"d": 2, "cells": "nope"}, "nu": payload["nu"]}
    cfg2 = write_cfg(tmp_path, "dec2.json", bad)
    assert main(["decompose", "--config", cfg2, "--out", str(out)]) == 2
    assert "mu" in json.loads(capsys.readouterr().err)["error"]


def test_decompose_singular_part_round_trip(tmp_path):
    # against a zero mu, the singular part of nu is nu itself: the measure
    # reader and the report's measure writer are inverse on canonical JSON
    nu = {
        "d": 2,
        "cells": [{"id": 0, "weight": 0.5, "density": [1.5, -2.0]},
                  {"id": 1, "weight": 2.0, "density": [0.0, 3.25]}],
        "atoms": [{"site": "a", "mass": [1.0, 0.0]}],
    }
    mu = {"d": 2, "cells": [{"id": 1, "weight": 2.0, "density": [0.0, 0.0]},
                            {"id": 0, "weight": 0.5, "density": [0.0, 0.0]}]}
    cfg = write_cfg(tmp_path, "dec.json", {"mu": mu, "nu": nu})
    out = tmp_path / "out"
    assert main(["decompose", "--config", cfg, "--out", str(out)]) == 0
    assert load(out / "decompose_report.json")["singular_part"] == nu


def test_decompose_malformed_measure(tmp_path, capsys):
    nu = {"d": 2, "cells": [{"id": 0, "weight": 1.0, "density": [0.0, 1.0]}]}
    for mu in ({"cells": []}, {"d": 2, "cells": [{"id": 0, "weight": 1.0}]}):
        cfg = write_cfg(tmp_path, "dec.json", {"mu": mu, "nu": nu})
        assert main(["decompose", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        diag = json.loads(capsys.readouterr().err)
        assert diag["exit_code"] == 2 and "bad mu measure: missing key" in diag["error"]


def test_verify_fast_reproducible(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "verify.json", {"profile": "fast", "seed": 2026})
    out1, out2 = tmp_path / "v1", tmp_path / "v2"
    assert main(["verify", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["verify", "--config", cfg, "--out", str(out2)]) == 0
    b1 = (out1 / "verify_report.json").read_bytes()
    b2 = (out2 / "verify_report.json").read_bytes()
    assert b1 == b2
    rep = load(out1 / "verify_report.json")
    assert rep["all_passed"] is True
    assert rep["seed"] == 2026
    assert len(rep["criteria"]) == 12
    assert "PASS: 12/12" in capsys.readouterr().out


def test_verify_failing_criterion_exits_1(tmp_path, capsys, monkeypatch):
    # a criterion with a row over its threshold fails the report
    monkeypatch.setattr(acceptance, "_CRITERIA", {
        1: lambda seed, **_: acceptance._crit(1, "passes", [acceptance._row("small", 0.5, 1.0)]),
        2: lambda seed, **_: acceptance._crit(2, "fails", [acceptance._row("large", 2.0, 1.0)]),
    })
    cfg = write_cfg(tmp_path, "verify.json", {"profile": "fast", "seed": 2026})
    out = tmp_path / "v"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    stdout = capsys.readouterr().out
    assert stdout.splitlines() == ["FAIL 2: large (2 > 1)", "FAIL: 1/2 criteria"]
    rep = load(out / "verify_report.json")
    assert rep["all_passed"] is False
    assert [c["passed"] for c in rep["criteria"]] == [True, False]


def test_console_entry_point(tmp_path):
    # the subprocess imports areavar from this checkout, installed or not
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "areavar.cli", "nonsense"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2


# ---- area on a non-square, off-centre grid ----------------------------------------

# Bilinear field: its cell gradient and corner average are exact at cell centres.
BILINEAR = "0.3 + 0.7*x - 1.2*y + 0.5*x*y"


def _bilinear_density(kind, x, y):
    u, ux, uy = 0.3 + 0.7 * x - 1.2 * y + 0.5 * x * y, 0.7 + 0.5 * y, -1.2 + 0.5 * x
    if kind == "euclidean":
        return np.sqrt(1.0 + ux * ux + uy * uy)
    if kind == "heisenberg":
        return np.hypot(y - ux, x + uy)
    return np.sqrt(1.0 + (ux - 2.0 * u * uy) ** 2)


@pytest.mark.parametrize("kind", ["euclidean", "heisenberg", "intrinsic"])
def test_area_non_square_grid(tmp_path, kind):
    payload = {
        "domain": {"extents": [[-0.4, 1.3], [0.2, 1.1]], "n_cells": [12, 7]},
        "kind": kind,
        "field": {"expression": BILINEAR},
    }
    cfg = write_cfg(tmp_path, "area.json", payload)
    out = tmp_path / "out"
    assert main(["area", "--config", cfg, "--out", str(out)]) == 0
    rows = np.loadtxt(out / "density.csv", delimiter=",", skiprows=1)
    assert rows.shape == (12 * 7, 5)
    i, j, x, y, dens = rows.T
    assert np.array_equal(i, np.repeat(np.arange(12), 7))
    assert np.array_equal(j, np.tile(np.arange(7), 12))
    assert np.allclose(x, -0.4 + (i + 0.5) * 1.7 / 12, rtol=0, atol=1e-15)
    assert np.allclose(y, 0.2 + (j + 0.5) * 0.9 / 7, rtol=0, atol=1e-15)
    exact = _bilinear_density(kind, x, y)
    assert np.max(np.abs(dens - exact) / exact) <= 1e-12
    rep = load(out / "report.json")
    assert rep["cells"] == 84 and rep["max_density"] == dens.max()


# ---- malformed config sections ----------------------------------------------------

GRID4 = {"extents": [[-1, 1], [-1, 1]], "n_cells": [4, 4]}
TINY_SOLVE = {"domain": GRID4, "boundary": {"expression": "x*y"},
              "solver": {"a_schedule": [1.0, 0.5]}}
ONE_CELL = {"d": 2, "cells": [{"id": 0, "weight": 1.0, "density": [1.0, 0.0]}]}
VALID = {
    "solve": TINY_SOLVE,
    "vary": TINY_SOLVE,
    "verify": {"profile": "fast"},
    "area": {"domain": GRID4, "kind": "euclidean", "field": {"expression": "x"}},
    "curvature": {"domain": GRID4, "operator": "horizontal", "field": {"expression": "x*y"}},
    "decompose": {"mu": ONE_CELL, "nu": ONE_CELL},
}
THREE_AXES = {"extents": [[-1, 1], [-1, 1], [-1, 1]], "n_cells": [2, 2, 2]}


CELL = ONE_CELL["cells"][0]


def _measure(cells=(CELL,), **patch):
    return dict(ONE_CELL, cells=list(cells), **patch)


@pytest.mark.parametrize(
    "command, patch, key",
    [
        ("solve", {"spec": "p_area"}, "spec"),
        ("curvature", {"spec": []}, "spec"),
        ("solve", {"solver": []}, "solver"),
        ("vary", {"direction": 5}, "direction"),
        *[(command, {"seed": "abc"}, "seed") for command in VALID],
        ("area", {"seed": -1}, "seed"),
        ("verify", {"threshold_override": "abc"}, "threshold_override"),
        ("verify", {"profile": ["fast"]}, "profile"),
        ("decompose", {"eps": "x"}, "eps"),
        ("decompose", {"mu": {"path": 0}}, "mu.path"),
        ("area", {"field": {"csv": 1}}, "field.csv"),
        ("area", {"domain": THREE_AXES}, "domain"),
        ("solve", {"domain": THREE_AXES}, "domain"),
        *[("decompose", {"eps": bad}, "eps must be a finite number")
          for bad in (True, "0.5", math.nan, math.inf, -math.inf)],
        # a removed key, whatever it holds
        *[("verify", {"threshold_override": value}, "threshold_override is no longer accepted")
          for value in (0.0, 1.0, None, True, math.inf)],
        ("vary", {"solver": {"quad_order": True}}, "unknown solver option"),   # removed option
        # every number is a finite JSON number, every count an integer
        *[("area", {"domain": dict(GRID4, n_cells=[bad, 8])}, "bad domain: n_cells entry")
          for bad in (8.9, "8")],
        ("area", {"domain": dict(GRID4, extents=[["-1", "1"], [-1, 1]])}, "bad domain: extent"),
        ("area", {"domain": dict(GRID4, extents=[[-math.inf, math.inf], [-1, 1]])},
         "bad domain: extent entry must be a finite number"),
        ("area", {"domain": dict(GRID4, extents=[[-1e308, 1e308], [-1, 1]])},
         "bad domain: each extent must be finite"),
        *[("solve", {"spec": {"preset": "p_area", "H": bad}}, "bad spec: H must be a finite number")
          for bad in (True, math.nan, math.inf)],
        ("vary", {"direction": {"random": "no"}}, "direction.random must be a boolean"),
        *[("decompose", {"mu": _measure(d=bad)}, "bad mu measure: d must be an integer")
          for bad in ("2", 2.7, True)],
        ("decompose", {"mu": _measure(cells=[dict(CELL, weight="1.0")])},
         "bad mu measure: cell weight must be a finite number"),
        *[("decompose", {"mu": _measure(cells=[dict(CELL, id=i) for i in ids])},
           "bad mu measure: cell ids must be 0..n-1")
          for ids in ((0, 0), (3, 5))],
        ("decompose", {"mu": _measure(atoms=[{"site": 1, "mass": [1.0, 0.0]}]),
                       "nu": _measure(atoms=[{"site": True, "mass": [0.0, 1.0]}])},
         "bad mu measure: atom sites must be strings"),
        ("decompose", {"nu": _measure(atoms=[{"site": True, "mass": [0.0, 1.0]}])},
         "bad nu measure: atom sites must be strings"),
        ("decompose", {"mu": _measure(d=0, cells=[dict(CELL, density=[])])},
         "bad mu measure: d must be >= 1"),
        ("decompose", {"mu": _measure(d=-1, cells=[])}, "bad mu measure: d must be >= 1"),
    ],
)
def test_malformed_config_sections_exit_2(tmp_path, capsys, command, patch, key):
    cfg = write_cfg(tmp_path, "cfg.json", dict(VALID[command], **patch))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    (line,) = capsys.readouterr().err.strip().splitlines()   # no warning before it
    diag = json.loads(line)
    assert diag["exit_code"] == 2 and key in diag["error"]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: lines + ["1,1,-0.5,-0.5,99"], "duplicate"),
        (lambda lines: [line.replace(",-0.5,", ",0.3,", 1) if line.startswith("1,") else line
                        for line in lines], "x coordinates off"),
        (lambda lines: [("-1" + line[1:]) if line.startswith("4,") else line
                        for line in lines], "negative"),
    ],
)
@pytest.mark.parametrize("command, key", [("area", "field"), ("solve", "boundary")])
def test_bad_field_csv_exit_2(tmp_path, capsys, edit, message, command, key):
    # a CSV written for the configured 4 x 4 grid on [-1, 1]^2, then edited
    dom = GridDomain(((-1.0, 1.0), (-1.0, 1.0)), (4, 4))
    path = tmp_path / "u.csv"
    write_scalar_csv(ScalarField.from_function(dom, lambda x, y: x * y), path)
    cfg = write_cfg(tmp_path, "cfg.json", dict(VALID[command], **{key: {"csv": str(path)}}))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["exit_code"] == 2 and f"bad {key} CSV" in diag["error"] and message in diag["error"]
