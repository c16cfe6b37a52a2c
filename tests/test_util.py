import math
import struct
import warnings

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from areavar.util import dot2, fixed_dot, g17, pairwise_sum, rotate_pairs, rotate_quarter, to_json


def test_pairwise_sum_matches_fsum():
    rng = np.random.RandomState(0)
    for _ in range(50):
        x = rng.randn(rng.randint(1, 2000)) * 10.0 ** rng.randint(-6, 7)
        ref = math.fsum(x.tolist())
        got = pairwise_sum(x)
        assert abs(got - ref) <= 1e-13 * (1.0 + np.abs(x).sum())


def test_fixed_dot_is_one_ddot_per_chunk_summed_in_order():
    rng = np.random.RandomState(3)
    for n in (1, 100, 8192):
        a, b = rng.randn(n), rng.randn(n)
        assert fixed_dot(a, b) == float(a @ b)
    a, b = rng.randn(20000), rng.randn(20000)
    parts = [float(a[k:k + 8192] @ b[k:k + 8192]) for k in (0, 8192, 16384)]
    assert fixed_dot(a, b) == (parts[0] + parts[1]) + parts[2]
    assert abs(fixed_dot(a, b) - math.fsum((a * b).tolist())) <= 1e-12 * float(np.abs(a) @ np.abs(b))


def test_pairwise_sum_edge_cases():
    assert pairwise_sum(np.array([])) == 0.0
    assert pairwise_sum(np.array([3.5])) == 3.5
    x = np.random.RandomState(1).randn(777)
    assert pairwise_sum(x) == pairwise_sum(x.copy())


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def test_dot2_is_einsum_bit_for_bit():
    rng = np.random.RandomState(3)
    for trial in range(60):
        n = rng.randint(1, 40)
        shape = (n, n, 2) if trial % 2 else (n * n, 2)
        a, b = (rng.randn(*shape) * 10.0 ** rng.uniform(-200, 200, shape) for _ in range(2))
        # planted zeros of both signs, so that products of -0 occur
        a[rng.rand(*shape) < 0.2] = 0.0
        b[rng.rand(*shape) < 0.2] = -0.0
        for x, y in ((a, a), (b, b), (a, b), (b, a), (a[::-1], b)):
            assert np.array_equal(_bits(dot2(x, y)), _bits(np.einsum("...k,...k->...", x, y)))


def test_dot2_signed_zeros_and_overflow():
    a = np.array([[-0.0, 1.0], [-0.0, -0.0], [2.0, -0.0]])
    b = np.array([[1.0, -0.0], [0.0, 0.0], [-0.0, 1.0]])
    assert np.array_equal(_bits(dot2(a, b)), _bits(np.einsum("...k,...k->...", a, b)))
    big = np.full((3, 3, 2), 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(dot2(big, big) == np.inf)
        assert np.all(np.isnan(dot2(big, big * [1.0, -1.0])))


def test_rotate_quarter():
    v = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, -3.0]])
    r = rotate_quarter(v)
    # +90 degrees: (x, y) -> (-y, x)
    assert np.array_equal(r, np.array([[0.0, 1.0], [-1.0, 0.0], [3.0, 2.0]]))


def test_rotate_pairs_p_area_drift():
    # rotating the p-area drift (-y, x) gives the radial field (x, y)
    xy = np.array([[[0.5, 2.0]], [[-1.0, 3.0]]])  # values of (-y, x)
    out = rotate_pairs(xy)
    assert np.array_equal(out[..., 0], xy[..., 1])
    assert np.array_equal(out[..., 1], -xy[..., 0])


def test_g17_round_trip():
    rng = np.random.RandomState(2)
    for _ in range(200):
        x = float(rng.randn() * 10.0 ** rng.randint(-12, 13))
        assert float(g17(x)) == x


# grids' CSV writer formats a whole grid line with one "%.17g" template; the
# bytes stay g17's only while the two agree on every double
@given(st.floats(allow_nan=True, allow_infinity=True))
def test_percent_g17_is_g17(x):
    assert "%.17g" % x == g17(x)


@given(st.integers(0, 2**64 - 1))
def test_percent_g17_is_g17_on_every_bit_pattern(bits):
    x = struct.unpack("<d", struct.pack("<Q", bits))[0]
    assert "%.17g" % x == g17(x)


def test_to_json_deterministic_and_sorted():
    a = to_json({"b": 1, "a": [1.5, 2], "c": {"y": True, "x": None}})
    b = to_json({"c": {"x": None, "y": True}, "a": [1.5, 2], "b": 1})
    assert a == b
    assert a.index('"a"') < a.index('"b"') < a.index('"c"')


def test_to_json_values():
    s = to_json({"f": 0.1, "n": float("nan"), "i": 7, "t": (1, 2), "arr": np.array([1.0])})
    assert '"n": null' in s
    assert float(s.split('"f": ')[1].split(",")[0].strip("\n }")) == 0.1
    assert '"i": 7' in s
    import pytest

    with pytest.raises(TypeError):
        to_json({1: "non-string key"})
