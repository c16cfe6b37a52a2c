"""Shared numerics helpers: deterministic reductions, 2-vector and
thread-count-independent 1-D dot products, and 2D rotations."""
from __future__ import annotations

import numpy as np


def pairwise_sum(values) -> float:
    """Sum an array with a fixed pairwise reduction tree.

    The reduction order depends only on the length of the input, so repeated
    runs on identical data give bit-identical results (required for
    reproducible reports), and the error growth is O(log n) like numpy's own
    pairwise sum.
    """
    a = np.asarray(values, dtype=np.float64).ravel()
    if a.size == 0:
        return 0.0
    while a.size > 1:
        if a.size % 2:
            a = np.concatenate([a, [0.0]])
        a = a[0::2] + a[1::2]
    return float(a[0])


def dot2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product over a last axis of length 2, bit for bit
    np.einsum("...k,...k->...", a, b) at about half its cost on cell arrays.

    einsum accumulates (0 + a0*b0) + a1*b1; that differs from a0*b0 + a1*b1
    only when both products are -0, so a final + 0 maps -0 to +0 (a square
    is never -0, so dot2(a, a) skips it).  Like einsum it is silent when a
    product overflows.  Only for 2 components: a column loop over d >= 3
    components does not give einsum's bits, so general-d contractions (the
    measures module) stay einsum.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = a[..., 0] * b[..., 0]
        out += a[..., 1] * b[..., 1]
        if a is not b:
            out += 0.0
    return out


# fixed_dot's chunk: OpenBLAS splits one ddot across threads above 10 000
# entries, so a longer dot product's bits depend on the thread count
_DOT_CHUNK = 8192


def fixed_dot(a: np.ndarray, b: np.ndarray) -> float:
    """a @ b for 1-D float64 arrays, with bits independent of the BLAS thread
    count: ddot over consecutive chunks of at most _DOT_CHUNK entries, the
    partial sums added in order.  Up to _DOT_CHUNK entries it is one ddot,
    a @ b itself; np.linalg.norm(x) of a 1-D array is sqrt(x @ x)."""
    total = float(a[:_DOT_CHUNK] @ b[:_DOT_CHUNK])
    for k in range(_DOT_CHUNK, a.shape[0], _DOT_CHUNK):
        total += float(a[k:k + _DOT_CHUNK] @ b[k:k + _DOT_CHUNK])
    return total


def rotate_quarter(v: np.ndarray) -> np.ndarray:
    """Rotate 2-vectors by +90 degrees: (x, y) -> (-y, x).

    Works on any array whose last axis has length 2.
    """
    out = np.empty_like(v)
    out[..., 0] = -v[..., 1]
    out[..., 1] = v[..., 0]
    return out


def rotate_pairs(field: np.ndarray) -> np.ndarray:
    """Map (g1, g2, g3, g4, ...) -> (g2, -g1, g4, -g3, ...) on the last axis.

    For a planar field this is the clockwise quarter turn whose divergence
    equals the scalar curl of the original field.
    """
    d = field.shape[-1]
    if d % 2:
        raise ValueError("rotate_pairs needs an even number of components")
    out = np.empty_like(field)
    out[..., 0::2] = field[..., 1::2]
    out[..., 1::2] = -field[..., 0::2]
    return out


def g17(x: float) -> str:
    """Format a float with 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


def to_json(obj, indent: int = 0) -> str:
    """Serialize to JSON with 17-significant-digit floats, sorted keys.

    The output depends only on the values, never on dict construction
    order or run-to-run state, so identical reports serialize to identical
    bytes.  Non-finite floats become null (JSON has no representation).
    """
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            return "null"
        return g17(x)
    if isinstance(obj, str):
        out = ['"']
        for ch in obj:
            if ch == '"':
                out.append('\\"')
            elif ch == "\\":
                out.append("\\\\")
            elif ord(ch) < 0x20:
                out.append(f"\\u{ord(ch):04x}")
            else:
                out.append(ch)
        out.append('"')
        return "".join(out)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            items.append(f"{pad_in}{to_json(key)}: {to_json(obj[key], indent + 1)}")
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{pad_in}{to_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")
