"""The convolution *-algebra of matrix-valued functions on a finite group.

A MatFun assigns one complex n x n matrix to every group element.  With
counting measure, convolution is (a*b)(x) = sum_g a(g) b(g^-1 x) with a
matrix product inside the sum, star is a*(g) = conj(a(g^-1))^T, and the
inner product is <a, b> = sum_g Tr(a(g) conj(b(g))^T).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import GroupTable, canonical_spec, group_from_json, group_to_json, parse_group_spec, validate_group

__all__ = [
    "MatFun",
    "VecFun",
    "convolve",
    "convolve_vec",
    "star",
    "inner",
    "add",
    "subtract",
    "scale",
    "conjugate",
    "l2_norm",
    "l1_norm",
    "delta_identity",
    "zero_matfun",
    "random_matfun",
    "random_vecfun",
    "make_pd",
    "matfun_to_json",
    "matfun_from_json",
]


@dataclass(frozen=True, eq=False)
class MatFun:
    """One complex n x n matrix per group element; values[g] is the value at g."""

    group: GroupTable
    n: int
    values: np.ndarray  # (|G|, n, n) complex128

    def __post_init__(self) -> None:
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=np.complex128))
        if vals.shape != (self.group.order, self.n, self.n):
            raise ValueError(
                f"values shape {vals.shape} does not match (|G|, n, n) = "
                f"({self.group.order}, {self.n}, {self.n})"
            )
        if not np.all(np.isfinite(vals.view(np.float64))):
            raise ValueError("MatFun entries must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def at(self, g: int) -> np.ndarray:
        return self.values[g]


@dataclass(frozen=True, eq=False)
class VecFun:
    """One complex n-vector per group element, an element of L2(G, C^n)."""

    group: GroupTable
    n: int
    values: np.ndarray  # (|G|, n) complex128

    def __post_init__(self) -> None:
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=np.complex128))
        if vals.shape != (self.group.order, self.n):
            raise ValueError(
                f"values shape {vals.shape} does not match (|G|, n) = "
                f"({self.group.order}, {self.n})"
            )
        if not np.all(np.isfinite(vals.view(np.float64))):
            raise ValueError("VecFun entries must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def flat(self) -> np.ndarray:
        """Flatten to C^(|G| n) with index g*n + component."""
        return self.values.reshape(-1)

    @classmethod
    def from_flat(cls, group: GroupTable, n: int, flat: np.ndarray) -> "VecFun":
        return cls(group, n, np.asarray(flat).reshape(group.order, n))


def _check_compatible(a: MatFun | VecFun, b: MatFun | VecFun) -> None:
    if not a.group.same_table(b.group):
        raise ValueError("group mismatch")
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")


def _conv_index(group: GroupTable, n: int) -> np.ndarray:
    """Flat gather index of the convolution matrix of an n x n function on group.

    values.reshape(-1)[index] is the (|G| n, |G| n) matrix whose block
    (x, y) is values[x y^-1], i.e. index[x n + i, y n + k] =
    idx[x, y] n^2 + i n + k with idx = mult[:, inv].  Built once per
    (table, n) and cached on the table instance; threads that race on a
    first build compute equal arrays and setdefault keeps one of them.
    """
    cache = group._conv_index_cache
    index = cache.get(n)
    if index is None:
        order = group.order
        blocks = group.mult[:, group.inv] * (n * n)
        within = np.arange(n)[:, None] * n + np.arange(n)[None, :]
        index = (blocks[:, None, :, None] + within[None, :, None, :]).reshape(order * n, order * n)
        index.flags.writeable = False
        index = cache.setdefault(n, index)
    return index


def _conv_operator(group: GroupTable, a: np.ndarray) -> np.ndarray:
    """Convolution matrix of raw values a (|G|, n, n): one gather, no arithmetic."""
    return a.reshape(-1)[_conv_index(group, a.shape[1])]


def _conv_kernel(group: GroupTable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a*b)(x) = sum_g a(g) b(g^-1 x) on raw arrays, as one gemm.

    a is (|G|, n, n) and b is (|G|, n, ...); the columns of b, flattened
    with index g*n + component, are multiplied by the convolution matrix
    of a, since sum_y a(x y^-1) b(y) is the same sum.
    """
    order, n = a.shape[0], a.shape[1]
    return (_conv_operator(group, a) @ b.reshape(order * n, -1)).reshape(b.shape)


def convolve(a: MatFun, b: MatFun) -> MatFun:
    """(a*b)(x) = sum_g a(g) b(g^-1 x): the convolution matrix of a times b's columns."""
    _check_compatible(a, b)
    return MatFun(a.group, a.n, _conv_kernel(a.group, a.values, b.values))


def convolve_vec(a: MatFun, u: VecFun) -> VecFun:
    """Left convolution action on vector functions: sum_g a(g) u(g^-1 x)."""
    _check_compatible(a, u)
    return VecFun(a.group, a.n, _conv_kernel(a.group, a.values, u.values))


def star(a: MatFun) -> MatFun:
    """Adjoint in the *-algebra: a*(g) = conj(a(g^-1))^T."""
    vals = np.conj(a.values[a.group.inv]).transpose(0, 2, 1)
    return MatFun(a.group, a.n, vals)


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
    peak = float(np.max(np.abs(values), initial=0.0))
    return float(np.ldexp(1.0, int(np.frexp(peak)[1]) - 1)) if 0.0 < peak < np.inf else 1.0


# Below this a plain norm may have lost its squares to underflow.
_TINY_NORM = 2.0**-500


def l2_norm(a: MatFun) -> float:
    """sqrt(sum_g ||a(g)||_F^2), finite for every finite a.

    The plain norm squares the entries, so it overflows from entries
    near 1e154 and underflows below 1e-154; only then is it recomputed
    on a divided by the power of two near its largest entry.
    """
    norm = float(np.linalg.norm(a.values))
    if not _TINY_NORM <= norm < np.inf:
        unit = _power_of_two_unit(a.values)
        norm = float(np.linalg.norm(a.values / unit)) * unit
    return norm


def l1_norm(a: MatFun) -> float:
    return float(np.sum(np.abs(a.values)))


def delta_identity(group: GroupTable, n: int) -> MatFun:
    """The convolution unit: identity matrix at e, zero elsewhere."""
    vals = np.zeros((group.order, n, n), dtype=np.complex128)
    vals[group.identity] = np.eye(n)
    return MatFun(group, n, vals)


def zero_matfun(group: GroupTable, n: int) -> MatFun:
    return MatFun(group, n, np.zeros((group.order, n, n), dtype=np.complex128))


def _generator(seed: int) -> np.random.Generator:
    # Philox is counter-based: the stream is a pure function of the key.
    return np.random.Generator(np.random.Philox(key=np.uint64(seed & 0xFFFFFFFFFFFFFFFF)))


def _complex_normal(rg: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Standard complex Gaussian entries: real then imaginary parts drawn from rg."""
    return (rg.standard_normal(shape) + 1j * rg.standard_normal(shape)) / np.sqrt(2.0)


def random_matfun(group: GroupTable, n: int, seed: int) -> MatFun:
    """Independent standard complex Gaussian entries, deterministic per seed."""
    return MatFun(group, n, _complex_normal(_generator(seed), (group.order, n, n)))


def random_vecfun(group: GroupTable, n: int, seed: int) -> VecFun:
    return VecFun(group, n, _complex_normal(_generator(seed), (group.order, n)))


def make_pd(f: MatFun) -> MatFun:
    """star(f) * f, positive definite since its convolution operator is T^H T."""
    return convolve(star(f), f)


def _is_standard_spec(name: str) -> bool:
    try:
        canonical_spec(name)
    except ValueError:
        return False
    return True


def matfun_to_json(a: MatFun) -> dict:
    """JSON object of a; a group whose name is not a standard spec is embedded
    as its table (group_to_json), so that the object loads again."""
    values = np.stack([a.values.real, a.values.imag], axis=-1)
    obj = {"group_id": a.group.name, "n": a.n, "values": values.tolist()}
    if not _is_standard_spec(a.group.name):
        obj["group"] = group_to_json(a.group)
    return obj


def matfun_from_json(obj: dict, group: GroupTable | None = None) -> MatFun:
    """Rebuild a MatFun; unless given, the group is the embedded table,
    which must satisfy the group axioms, or else the spec in group_id."""
    try:
        group_id = str(obj["group_id"])
        n = int(obj["n"])
        raw = np.asarray(obj["values"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed MatFun JSON: {exc}") from exc
    if group is None and "group" in obj:
        group = group_from_json(obj["group"], name=group_id)
        violations = validate_group(group).violations
        if violations:
            raise ValueError(f"embedded group table is not a group: {violations[0]}")
    elif group is None:
        group = parse_group_spec(group_id)
    if raw.shape != (group.order, n, n, 2):
        raise ValueError(f"MatFun JSON values have shape {raw.shape}, expected "
                         f"({group.order}, {n}, {n}, 2)")
    return MatFun(group, n, raw[..., 0] + 1j * raw[..., 1])
