"""Property test of the CLI boundary: hostile configs never escape as tracebacks.

Configs for `area`, `curvature`, `decompose` and a tiny `solve` are drawn with
top-level values of the wrong type, expressions from the grammar mixed with
hostile tokens and over-arity ufunc calls, and measure JSON of the wrong
shape.  Every run must exit 0, 2 or 3, and a non-zero exit must end stderr with
a one-line JSON diagnostic; an over-arity call must exit 2.
Grids that run stay at <= 4 cells per axis.  Cell counts above the CLI's size
bound are drawn too, and must exit 2 before anything of that size is allocated.  Strictness: a valid config
with one numeric (or boolean) leaf replaced by a value of the wrong kind must
exit exactly 2 with a single JSON line on stderr.
"""
import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from areavar.cli import _EXPR_NAMES, _MAX_CELLS, main

FLOATS = st.floats(allow_nan=True, allow_infinity=True)
SMALL_TEXT = st.text(max_size=2)
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    FLOATS,
    st.just(10**400),
    SMALL_TEXT,
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(SMALL_TEXT, st.integers(-2, 2), max_size=2),
)

# ---- expressions: the grammar, plus tokens it must reject -------------------------

ATOMS = st.sampled_from(["x", "y", "pi", "e", "0", "1", "2.5", "1e308", "-3"])
FUNCS = st.sampled_from(
    ["sin", "cos", "tan", "exp", "log", "sqrt", "abs", "hypot", "tanh", "atan2",
     "minimum", "maximum", "where"]
)
OPS = st.sampled_from(["+", "-", "*", "/", "//", "%", "**", "<", "<=", ">", ">=", "==", "!="])
HOSTILE = st.sampled_from(
    ["__import__('os')", "x.__class__", "[x][0]", "(lambda: x)()", "x if y else 1", "{}",
     "'s'", "open", "x[0]", "exec('1')", "f'{x}'", "10**10**10", "*", ")", "", "not x",
     "x and y", "x @ y", "b'x'", "1j", "True", "None", "...", "(x := 1)", "sin(x, y)",
     "where(x)", "sin(x=1)", "((((((((((x))))))))))", "x" * 300]
)

# a whitelisted ufunc called with a surplus positional argument, which numpy
# would take as its output array
UFUNC_ARITY = {name: fn.nin for name, fn in _EXPR_NAMES.items() if isinstance(fn, np.ufunc)}
OVER_ARITY = st.sampled_from(sorted(UFUNC_ARITY)).flatmap(
    lambda name: st.lists(ATOMS, min_size=UFUNC_ARITY[name] + 1, max_size=UFUNC_ARITY[name] + 2)
    .map(lambda args: f"{name}({', '.join(args)})")
)


def _compound(children):
    return st.one_of(
        st.tuples(children, OPS, children).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(FUNCS, st.lists(children, min_size=1, max_size=3)).map(
            lambda t: f"{t[0]}({', '.join(t[1])})"
        ),
        children.map(lambda c: f"-{c}"),
    )


EXPR = st.recursive(st.one_of(ATOMS, HOSTILE, OVER_ARITY), _compound, max_leaves=8)
FIELD = st.one_of(
    st.fixed_dictionaries({"expression": st.one_of(EXPR, JUNK)}),
    st.fixed_dictionaries({"csv": JUNK}),
    JUNK,
)

# ---- grids (at most 4 cells per axis) and energy specs ------------------------------

BOUND = st.one_of(FLOATS, st.just(10**400))
EXTENT = st.one_of(st.tuples(BOUND, BOUND).map(list), JUNK)
# alone above the cell bound, so no drawn grid is large and allowed
TOO_MANY_CELLS = st.one_of(st.integers(_MAX_CELLS + 1, 10**12), st.just(10**400))
CELLS = st.one_of(st.integers(-1, 4), st.none(), st.floats(max_value=4.0), SMALL_TEXT,
                  TOO_MANY_CELLS)
GOOD_EXTENTS = st.just([[-1.0, 1.0], [-0.5, 1.5]])
DOMAIN = st.one_of(
    st.fixed_dictionaries({"extents": GOOD_EXTENTS,
                           "n_cells": st.lists(st.integers(2, 4), min_size=2, max_size=2)}),
    st.fixed_dictionaries({"extents": GOOD_EXTENTS,
                           "n_cells": st.lists(st.one_of(st.integers(2, 4), TOO_MANY_CELLS),
                                               min_size=2, max_size=2)}),
    st.fixed_dictionaries({"extents": st.one_of(st.lists(EXTENT, max_size=3), JUNK),
                           "n_cells": st.one_of(st.lists(CELLS, max_size=3), JUNK)}),
    JUNK,
)
SPEC = st.one_of(
    st.fixed_dictionaries(
        {},
        optional={
            "preset": st.one_of(st.sampled_from(["zero", "p_area", "custom", "bogus"]), JUNK),
            "H": st.one_of(FLOATS, EXPR, JUNK),
            "F": st.one_of(st.lists(EXPR, max_size=3), JUNK),
        },
    ),
    JUNK,
)
SOLVER = st.one_of(
    st.just({"a_schedule": [1.0, 0.5]}),
    st.sampled_from(
        ["newton_tol", "max_newton_iters", "line_search_factor", "line_search_max",
         "continuation_stop", "quad_order"]
    ).flatmap(lambda key: st.fixed_dictionaries({"a_schedule": st.just([1.0, 0.5]), key: JUNK})),
    JUNK,
)
SEED = {"seed": st.one_of(st.integers(0, 9), JUNK)}

# ---- measures ------------------------------------------------------------------------

VECTOR = st.one_of(st.lists(FLOATS, max_size=3), JUNK)
CELL = st.fixed_dictionaries(
    {"id": st.one_of(st.integers(0, 3), JUNK), "weight": st.one_of(FLOATS, JUNK),
     "density": VECTOR}
)
ATOM = st.fixed_dictionaries({"site": st.one_of(SMALL_TEXT, JUNK), "mass": VECTOR})
MEASURE = st.one_of(
    st.fixed_dictionaries(
        {"d": st.one_of(st.integers(0, 3), JUNK), "cells": st.one_of(st.lists(CELL, max_size=3), JUNK)},
        optional={"atoms": st.one_of(st.lists(ATOM, max_size=2), JUNK)},
    ),
    st.fixed_dictionaries({"path": JUNK}),
    JUNK,
)

CONFIGS = {
    "area": st.fixed_dictionaries(
        {"domain": DOMAIN, "field": FIELD,
         "kind": st.one_of(st.sampled_from(["euclidean", "heisenberg", "intrinsic"]), JUNK)},
        optional=SEED,
    ),
    "curvature": st.fixed_dictionaries(
        {"domain": DOMAIN, "field": FIELD,
         "operator": st.one_of(st.sampled_from(["euclidean", "horizontal"]), JUNK)},
        optional=dict(SEED, spec=SPEC),
    ),
    "decompose": st.fixed_dictionaries(
        {"mu": MEASURE, "nu": MEASURE}, optional=dict(SEED, eps=st.one_of(FLOATS, JUNK))
    ),
    "solve": st.fixed_dictionaries(
        {"domain": DOMAIN, "boundary": FIELD, "solver": SOLVER},
        optional=dict(SEED, spec=SPEC),
    ),
}


def _run(command, cfg):
    """Run one CLI command on `cfg`; return its exit code, the JSON diagnostic
    on the last line of stderr if the code is non-zero, and the stderr lines."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", path, "--out", os.path.join(tmp, "out")])
    lines = err.getvalue().splitlines()
    return code, json.loads(lines[-1]) if code else None, lines


@pytest.mark.parametrize("command", sorted(CONFIGS))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_exits_cleanly_on_any_config(command, data):
    code, diag, _ = _run(command, data.draw(CONFIGS[command], label="config"))
    assert code in (0, 2, 3)
    if code:
        assert diag["exit_code"] == code and diag["command"] == command


@settings(max_examples=40, deadline=None)
@given(call=OVER_ARITY, rest=st.sampled_from(["", " + y", " * x"]))
def test_over_arity_ufunc_call_exits_2(call, rest):
    cfg = {"domain": {"extents": [[-1.0, 1.0], [-0.5, 1.5]], "n_cells": [3, 4]},
           "kind": "euclidean", "field": {"expression": call + rest}}
    code, diag, _ = _run("area", cfg)
    assert code == 2 and diag["exit_code"] == 2
    assert "argument" in diag["error"]


@settings(max_examples=40, deadline=None)
@given(
    command=st.sampled_from(["area", "curvature", "solve", "vary"]),
    n_cells=st.one_of(
        st.tuples(st.integers(2, 2**21), st.integers(2, 2**21)).filter(
            lambda n: n[0] * n[1] > _MAX_CELLS),
        st.tuples(st.integers(2, 4), TOO_MANY_CELLS),
    ),
)
def test_too_many_cells_exit_2(command, n_cells):
    cfg = {"domain": {"extents": [[-1.0, 1.0], [-0.5, 1.5]], "n_cells": list(n_cells)},
           "kind": "euclidean", "field": {"expression": "x"}, "boundary": {"expression": "x"}}
    code, diag, _ = _run(command, cfg)
    assert code == 2 and diag["exit_code"] == 2
    assert "cells" in diag["error"]


# ---- strictness: one leaf of a valid config replaced by a value of the wrong kind ----

GRID = {"extents": [[-1.0, 1.0], [-0.5, 1.5]], "n_cells": [3, 4]}
PAIR = {"d": 2,
        "cells": [{"id": 0, "weight": 1.0, "density": [1.0, 0.0]},
                  {"id": 1, "weight": 0.5, "density": [0.0, 2.0]}],
        "atoms": [{"site": "a", "mass": [0.5, 0.5]}]}
STRICT_VALID = {
    "area": {"domain": GRID, "kind": "euclidean", "field": {"expression": "x"}, "seed": 1},
    "vary": {"domain": GRID, "spec": {"preset": "p_area", "H": 0.5},
             "boundary": {"expression": "x*y"},
             "solver": {"a_schedule": [1.0, 0.5], "newton_tol": 1e-10, "max_newton_iters": 50,
                        "continuation_stop": 1e-6},
             "direction": {"random": True}},
    "decompose": {"mu": PAIR, "nu": PAIR, "eps": 0.25},
    "verify": {"profile": "fast", "threshold_override": 1.0},
}
# (command, path to the leaf, the kind of value the leaf must hold)
LEAVES = [
    ("area", ("domain", "extents", 0, 0), float),
    ("area", ("domain", "extents", 1, 1), float),
    ("area", ("domain", "n_cells", 0), int),
    ("area", ("seed",), int),
    ("vary", ("spec", "H"), "number or expression"),
    ("vary", ("solver", "a_schedule", 1), float),
    ("vary", ("solver", "newton_tol"), float),
    ("vary", ("solver", "max_newton_iters"), int),
    ("vary", ("solver", "continuation_stop"), float),
    ("vary", ("direction", "random"), bool),
    ("decompose", ("eps",), float),
    ("decompose", ("mu", "d"), int),
    ("decompose", ("nu", "cells", 1, "id"), int),
    ("decompose", ("mu", "cells", 0, "weight"), float),
    ("decompose", ("nu", "cells", 1, "density", 0), float),
    ("decompose", ("mu", "atoms", 0, "mass", 1), float),
    ("verify", ("threshold_override",), float),
]
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _leaf(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


def _wrong_kind(kind, valid):
    """Values a leaf of `kind` (valid value `valid`) must refuse."""
    if kind is bool:
        return st.one_of(st.sampled_from([0, 1, "true", "1"]), NON_FINITE)
    if kind == "number or expression":     # a string is an expression
        return st.one_of(st.booleans(), NON_FINITE)
    wrong = [st.booleans(), st.just(str(valid)), NON_FINITE]
    if kind is int:
        wrong.append(st.floats(-50, 50).filter(lambda v: not v.is_integer()))
    return st.one_of(*wrong)


def _replaced(cfg, path, value):
    cfg = json.loads(json.dumps(cfg))
    _leaf(cfg, path[:-1])[path[-1]] = value
    return cfg


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_wrong_leaf_exits_2(data):
    command, path, kind = data.draw(st.sampled_from(LEAVES), label="leaf")
    valid = STRICT_VALID[command]
    value = data.draw(_wrong_kind(kind, _leaf(valid, path)), label="value")
    code, diag, lines = _run(command, _replaced(valid, path, value))
    assert code == 2 and len(lines) == 1
    assert diag["exit_code"] == 2 and diag["command"] == command
