"""The convolution *-algebra of matrix-valued functions on a finite group.

A MatFun assigns one complex n x n matrix to every group element.  With
counting measure, convolution is (a*b)(x) = sum_g a(g) b(g^-1 x) with a
matrix product inside the sum, star is a*(g) = conj(a(g^-1))^T, and the
inner product is <a, b> = sum_g Tr(a(g) conj(b(g))^T).
"""

from __future__ import annotations

import base64
import math
import threading
from dataclasses import dataclass

import numpy as np

from .groups import (GroupTable, _as_int, _check_array_size, _json_numbers, _standard_spec, _violations,
                     group_from_json, group_to_json, parse_group_spec)

__all__ = [
    "MatFun",
    "convolve",
    "star",
    "inner",
    "add",
    "subtract",
    "scale",
    "conjugate",
    "l2_norm",
    "delta_identity",
    "zero_matfun",
    "random_matfun",
    "make_pd",
    "matfun_to_json",
    "matfun_from_json",
]


def _check_n(n: int) -> int:
    """n as a plain int; ValueError unless it is an integer >= 1 and not a
    bool.  The samplers and the constructor call it before they allocate, so
    numpy never meets a negative n; a MatFun keeps the int for its JSON."""
    n = _as_int(n, "MatFun dimension n")
    if n < 1:
        raise ValueError(f"MatFun dimension n must be >= 1, got {n!r}")
    return n


@dataclass(frozen=True, eq=False)
class MatFun:
    """One complex n x n matrix per group element; values[g] is the value at g.

    values is kept as a read-only C-contiguous complex128 array of shape
    (|G|, n, n), with every entry finite, for a dimension n >= 1.
    """

    group: GroupTable
    n: int
    values: np.ndarray  # (|G|, n, n) complex128

    def __post_init__(self) -> None:
        n = _check_n(self.n)
        values = np.ascontiguousarray(self.values, dtype=np.complex128)
        shape = (self.group.order, n, n)
        if values.shape != shape:
            raise ValueError(f"values shape {values.shape} does not match (|G|, n, n) = {shape}")
        if not np.isfinite(values.view(np.float64)).all():
            raise ValueError("MatFun entries must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", values)


def _check_compatible(a: MatFun, b: MatFun) -> None:
    if not a.group.same_table(b.group):
        raise ValueError("group mismatch")
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")


def _conv_index(group: GroupTable, n: int) -> np.ndarray:
    """Flat gather index of the convolution matrix of an n x n function on group.

    values.reshape(-1)[index] is the (|G| n, |G| n) matrix whose block
    (x, y) is values[x y^-1], i.e. index[x n + i, y n + k] =
    idx[x, y] n^2 + i n + k with idx = mult[:, inv].  Built once per
    (table, n) and cached on the table instance under the key n; threads
    that race on a first build compute equal arrays and setdefault keeps
    one of them.  The first build raises ValueError when the complex128
    operator the index gathers would pass groups._MAX_ARRAY_BYTES.  That
    check bounds this 8 (|G| n)^2-byte index, conv_matrix and the whole
    operator a convolution of n = 1 gathers; a convolution of n >= 2
    gathers at most _GATHER_BYTES of it at a time (_conv_kernel).
    """
    cache = group._cache
    index = cache.get(n)
    if index is None:
        order = group.order
        _check_array_size(16 * (order * n) ** 2, f"a convolution operator of dimension {n} on {order} elements",
                          "complex128 matrix")
        blocks = group.mult[:, group.inv] * (n * n)
        within = np.arange(n)[:, None] * n + np.arange(n)[None, :]
        index = (blocks[:, None, :, None] + within[None, :, None, :]).reshape(order * n, order * n)
        index.flags.writeable = False
        index = cache.setdefault(n, index)
    return index


def _conv_operator(group: GroupTable, a: np.ndarray) -> np.ndarray:
    """Convolution matrix of raw values a (|G|, n, n): one gather, no arithmetic."""
    return a.reshape(-1)[_conv_index(group, a.shape[1])]


# The most bytes of complex128 convolution matrix that one gather of
# _conv_kernel holds; larger operators of n >= 2 are gathered and multiplied
# in row blocks.  Every operator of side |G| n <= 181 stays one gather.
_GATHER_BYTES = 512 * 1024


def _conv_kernel(group: GroupTable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a*b)(x) = sum_g a(g) b(g^-1 x) on raw arrays, as a matrix product.

    a is (|G|, n, n) and b is (|G|, n, n) or (|G|, n); the columns of b,
    flattened with index g*n + component, are multiplied by the convolution
    matrix of a, since sum_y a(x y^-1) b(y) is the same sum.  make_pd and
    the suite's draws take star(f) * f as a = _adjoint(group, f), b = f.
    np.dot costs less than @ here and gives the same bits, as a test pins;
    only a 1 x 1 matrix times several columns, which these shapes never
    give, would be taken as a scalar product and round otherwise.

    A matrix within _GATHER_BYTES is gathered whole, and so is every matrix
    of n = 1.  A larger one is gathered in blocks of consecutive rows, each
    multiplied into its rows of one output array: the most rows within
    _GATHER_BYTES, at least two, and a last single row joins the block
    before it, since numpy takes a one-row product as a vector product and
    rounds it otherwise.  For n >= 2 blocks so cut give the whole product's
    bits, as a test pins.  At n = 1 the index is column-major, and
    OpenBLAS's matrix-vector kernel for it rounds a row by its place in the
    share of rows each thread takes, so the bits of a block would depend on
    the BLAS thread count.  Gathering whole skips the loop's np.empty and
    out=, 0.6-1.1 us of a 2-6 us call on the default suite's operators
    (2-core x86 host).
    """
    order, n = a.shape[0], a.shape[1]
    side = order * n
    flat, index, cols = a.reshape(-1), _conv_index(group, n), b.reshape(side, -1)
    if n == 1 or 16 * side * side <= _GATHER_BYTES:
        return np.dot(flat[index], cols).reshape(b.shape)
    rows = max(2, _GATHER_BYTES // (16 * side))
    out = np.empty(cols.shape, dtype=np.complex128)
    start = 0
    while start < side:
        stop = start + rows if side - start - rows > 1 else side
        np.dot(flat[index[start:stop]], cols, out=out[start:stop])
        start = stop
    return out.reshape(b.shape)


def convolve(a: MatFun, b: MatFun) -> MatFun:
    """(a*b)(x) = sum_g a(g) b(g^-1 x): the convolution matrix of a times b's columns."""
    _check_compatible(a, b)
    return MatFun(a.group, a.n, _conv_kernel(a.group, a.values, b.values))


def _adjoint_index(group: GroupTable, n: int) -> np.ndarray:
    """Flat gather index (|G|, n, n) of a(g^-1)^T: index[g, i, k] =
    inv[g] n^2 + k n + i.  Cached on the table beside _conv_index, under
    the key ("adjoint", n)."""
    cache = group._cache
    index = cache.get(("adjoint", n))
    if index is None:
        within = np.arange(n)[:, None] + np.arange(n)[None, :] * n  # [i, k] -> k n + i
        index = group.inv[:, None, None] * (n * n) + within
        index.flags.writeable = False
        index = cache.setdefault(("adjoint", n), index)
    return index


def _adjoint(group: GroupTable, a: np.ndarray) -> np.ndarray:
    """conj(a(g^-1))^T for every g, on raw values a (|G|, n, n), as a new
    C-contiguous array: one gather, so that _conv_operator can reshape it
    without a copy."""
    return np.conj(a.reshape(-1)[_adjoint_index(group, a.shape[1])])


def star(a: MatFun) -> MatFun:
    """Adjoint in the *-algebra: a*(g) = conj(a(g^-1))^T."""
    return MatFun(a.group, a.n, _adjoint(a.group, a.values))


def inner(a: MatFun, b: MatFun) -> complex:
    """<a, b> = sum_g Tr(a(g) conj(b(g))^T); conjugate-linear in b."""
    _check_compatible(a, b)
    return complex(np.vdot(b.values, a.values))


def add(a: MatFun, b: MatFun) -> MatFun:
    _check_compatible(a, b)
    return MatFun(a.group, a.n, a.values + b.values)


def subtract(a: MatFun, b: MatFun) -> MatFun:
    _check_compatible(a, b)
    return MatFun(a.group, a.n, a.values - b.values)


def scale(c: complex, a: MatFun) -> MatFun:
    return MatFun(a.group, a.n, c * a.values)


def conjugate(a: MatFun) -> MatFun:
    """Entrywise complex conjugate (not the star adjoint)."""
    return MatFun(a.group, a.n, np.conj(a.values))


def _power_of_two_unit(values: np.ndarray) -> float:
    """The power of two that brings the largest |entry| into [1, 2), or 1.

    Dividing by it is exact, and sums of squares of the quotient can
    neither overflow nor underflow.
    """
    peak = float(np.abs(values).max(initial=0.0))
    return math.ldexp(1.0, math.frexp(peak)[1] - 1) if 0.0 < peak < math.inf else 1.0


# Below this a plain norm may have lost its squares to underflow.
_TINY_NORM = 2.0**-500


def _frobenius(values: np.ndarray) -> float:
    """The Frobenius norm as numpy.linalg.norm computes it, in the same order.

    It costs about 2.6 us on a (8, 2, 2) array against 3.7 us for
    numpy.linalg.norm (2-core x86 host); a test pins the two bitwise
    equal.  Squares that overflow raise numpy's overflow warning, so
    callers whose entries may be large use _plain_norm.
    """
    flat = values.ravel(order="K")
    re, im = flat.real, flat.imag
    return math.sqrt(re.dot(re) + im.dot(im))


# _frobenius without the overflow warning: _l2 recomputes an overflowing sum,
# so the warning would be noise.  The errstate costs about 1.4 us per call.
_plain_norm = np.errstate(over="ignore")(_frobenius)


def _l2(values: np.ndarray) -> float:
    """l2_norm of raw values, for callers that hold an array and no MatFun."""
    norm = _plain_norm(values)
    if not _TINY_NORM <= norm < math.inf:
        unit = _power_of_two_unit(values)
        norm = _plain_norm(values / unit) * unit
    return norm


def l2_norm(a: MatFun) -> float:
    """sqrt(sum_g ||a(g)||_F^2), finite for every finite a.

    The plain norm squares the entries, so it overflows from entries
    near 1e154 and underflows below 1e-154; only then is it recomputed
    on a divided by the power of two near its largest entry.
    """
    return _l2(a.values)


def _zeros(group: GroupTable, n: int) -> np.ndarray:
    """(|G|, n, n) complex128 zeros, once n and the array's size are checked."""
    n = _check_n(n)
    _check_array_size(16 * group.order * n * n, f"a function of dimension {n} on {group.order} elements",
                      "complex128 array")
    return np.zeros((group.order, n, n), dtype=np.complex128)


def delta_identity(group: GroupTable, n: int) -> MatFun:
    """The convolution unit: identity matrix at e, zero elsewhere."""
    vals = _zeros(group, n)
    vals[group.identity] = np.eye(n)
    return MatFun(group, n, vals)


def zero_matfun(group: GroupTable, n: int) -> MatFun:
    return MatFun(group, n, _zeros(group, n))


_STREAMS = threading.local()
_SEED_MASK = 0xFFFFFFFFFFFFFFFF
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _complex_normals(seed: int, *shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Standard complex Gaussian arrays of the given shapes, drawn in turn
    (real then imaginary parts of each) from the Philox stream keyed by seed.

    Philox is counter-based: its whole state is its key, its counter and a
    buffer, so setting that state (key, counter 0, empty buffer) on this
    thread's one generator gives the stream Generator(Philox(key)) would,
    without building one.  The generator never leaves this function, so
    no caller can hold it across another draw.  A shape over the size limit
    (groups._check_array_size) raises ValueError before it is drawn.
    """
    rg = getattr(_STREAMS, "generator", None)
    if rg is None:
        rg = _STREAMS.generator = np.random.Generator(np.random.Philox(key=0))
    rg.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed & _SEED_MASK, 0)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    draws = []
    for shape in shapes:
        _check_array_size(16 * math.prod(shape), "a complex Gaussian draw", "complex128 array")
        parts = rg.standard_normal((2, *shape))
        # (re + 1j im) / sqrt(2) bit for bit: numpy's division by sqrt(2) + 0j
        # multiplies both parts by 1 / sqrt(2)
        parts *= _INV_SQRT2
        out = np.empty(shape, dtype=np.complex128)
        out.real, out.imag = parts
        draws.append(out)
    return draws


def random_matfun(group: GroupTable, n: int, seed: int) -> MatFun:
    """Independent standard complex Gaussian entries, deterministic per seed."""
    n = _check_n(n)
    return MatFun(group, n, _complex_normals(seed, (group.order, n, n))[0])


def make_pd(f: MatFun) -> MatFun:
    """star(f) * f, positive definite since its convolution operator is T^H T;
    star(f) stays raw values, never built or validated as a MatFun."""
    return MatFun(f.group, f.n, _conv_kernel(f.group, _adjoint(f.group, f.values), f.values))


# values_b64 holds the (|G|, n, n) values as little-endian complex128 in C order.
_WIRE_DTYPE = np.dtype("<c16")


def matfun_to_json(a: MatFun) -> dict:
    """JSON object of a: group_id, n and values_b64, the RFC 4648 base64
    (standard alphabet, padded) of the values as _WIRE_DTYPE bytes.  A group
    that is not its name's standard table (groups._standard_spec) is embedded
    as its table (group_to_json), so that the object loads again."""
    data = np.ascontiguousarray(a.values, dtype=_WIRE_DTYPE)
    obj = {"group_id": a.group.name, "n": a.n, "values_b64": base64.b64encode(data).decode("ascii")}
    if _standard_spec(a.group) is None:
        obj["group"] = group_to_json(a.group)
    return obj


def _malformed(detail: object) -> ValueError:
    return ValueError(f"malformed MatFun JSON: {detail}")


def _json_values(obj: dict, order: int, n: int) -> np.ndarray:
    """The (order, n, n) complex128 values of obj, bit for bit, from
    values_b64 or from the nested [re, im] pairs in values that earlier
    versions wrote; exactly one of the two keys must be present."""
    if ("values_b64" in obj) == ("values" in obj):
        raise _malformed("expected exactly one of values_b64 and values")
    if "values" in obj:
        try:
            raw = _json_numbers(obj["values"], "values", (int, float))
        except (ValueError, OverflowError) as exc:  # OverflowError: an int past the float range
            raise _malformed(exc) from exc
        if raw.shape != (order, n, n, 2):
            raise _malformed(f"values have shape {raw.shape}, expected ({order}, {n}, {n}, 2)")
        return raw.view(np.complex128)[..., 0]
    text = obj["values_b64"]
    if not isinstance(text, str):
        raise _malformed(f"values_b64 must be a string, not {type(text).__name__}")
    try:
        data = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        raise _malformed(f"values_b64 is not base64: {exc}") from exc
    expected = order * n * n * _WIRE_DTYPE.itemsize
    if len(data) != expected:
        raise _malformed(f"values_b64 holds {len(data)} bytes, expected {expected} "
                         f"for ({order}, {n}, {n}) complex128")
    return np.frombuffer(data, dtype=_WIRE_DTYPE).reshape(order, n, n)


def matfun_from_json(obj: dict, group: GroupTable | None = None) -> MatFun:
    """Rebuild a MatFun; unless given, the group is the embedded table,
    which must satisfy the group axioms, or else the spec in group_id.
    An n that is not a JSON integer >= 1, and values that do not fit the
    group and n or are not finite, raise
    ValueError("malformed MatFun JSON: ...")."""
    try:
        group_id = str(obj["group_id"])
        n = obj["n"]
    except (KeyError, TypeError) as exc:
        raise _malformed(exc) from exc
    if type(n) is not int:  # a bool is an int to isinstance; a float or string would be truncated
        raise _malformed(f"n must be a JSON integer, got {n!r}")
    if n < 1:
        raise _malformed(f"n must be positive, got {n}")
    if group is None and "group" in obj:
        group = group_from_json(obj["group"], name=group_id)
        violation = next(_violations(group), None)  # the first is all the message needs
        if violation is not None:
            raise ValueError(f"embedded group table is not a group: {violation}")
    elif group is None:
        group = parse_group_spec(group_id)
    values = _json_values(obj, group.order, n)
    try:
        return MatFun(group, n, values)
    except ValueError as exc:  # entries that are not finite
        raise _malformed(exc) from exc
