"""Unitary representations of finite groups and their matrix-coefficient functions.

A matrix coefficient function built from a representation and a tuple of
vectors is always positive definite, and pairings of two such functions
realize the nonnegativity of averaged diagonal coefficients of tensor
product representations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import GroupTable, _generating_set
from .matfun import MatFun, conjugate, inner, l2_norm
from .theorems import _PAIR_TOL, TheoremReport

__all__ = [
    "UnitaryRep",
    "regular_rep",
    "trivial_rep",
    "tensor_product",
    "matrix_coeff_fun",
    "check_tensor_nonneg",
    "unitarity_residual",
    "homomorphism_residual",
    "rep_to_json",
]


@dataclass(frozen=True, eq=False)
class UnitaryRep:
    """One unitary d x d matrix per group element, multiplicative on the table.

    Construction raises ValueError unless unitarity_residual and then
    homomorphism_residual (which assumes the first) are within _PAIR_TOL,
    so every UnitaryRep is a representation, as matrix_coeff_fun and
    check_tensor_nonneg need.
    """

    group: GroupTable
    dim: int
    matrices: np.ndarray  # (|G|, d, d) complex128

    def __post_init__(self) -> None:
        mats = np.ascontiguousarray(np.asarray(self.matrices, dtype=np.complex128))
        if mats.shape != (self.group.order, self.dim, self.dim):
            raise ValueError(
                f"matrices shape {mats.shape}, expected ({self.group.order}, {self.dim}, {self.dim})"
            )
        mats.flags.writeable = False
        object.__setattr__(self, "matrices", mats)
        for measure in (unitarity_residual, homomorphism_residual):
            if not (value := measure(self)) <= _PAIR_TOL:
                raise ValueError(f"not a unitary representation: {measure.__name__} {value:.3e}")

    def at(self, g: int) -> np.ndarray:
        return self.matrices[g]

    def character(self) -> np.ndarray:
        return np.trace(self.matrices, axis1=1, axis2=2)


def regular_rep(group: GroupTable) -> UnitaryRep:
    """Left regular representation by permutation matrices: M(g) e_h = e_{g h}."""
    order = group.order
    mats = np.zeros((order, order, order), dtype=np.complex128)
    for g in range(order):
        mats[g, group.mult[g], np.arange(order)] = 1.0
    return UnitaryRep(group, order, mats)


def trivial_rep(group: GroupTable) -> UnitaryRep:
    return UnitaryRep(group, 1, np.ones((group.order, 1, 1), dtype=np.complex128))


# Largest tensor product, in bytes of its complex128 matrices, that tensor_product
# forms: s4 regular x regular (127 MB) fits, s5 (371 GiB) does not.
_MAX_TENSOR_BYTES = 2 * 2**30


def _check_tensor_size(order: int, d1: int, d2: int) -> None:
    """Raise ValueError when the tensor product of representations of
    dimensions d1 and d2 on order elements, |G| (d1 d2)^2 complex128
    entries, would exceed _MAX_TENSOR_BYTES.  It needs no factor, so a
    caller can refuse before building them."""
    dim = d1 * d2
    size = order * dim * dim * 16
    if size > _MAX_TENSOR_BYTES:
        raise ValueError(f"tensor product of dimension {dim} on {order} elements needs "
                         f"{size / 2**30:.1f} GiB, over the {_MAX_TENSOR_BYTES / 2**30:.0f} GiB limit")


def tensor_product(p1: UnitaryRep, p2: UnitaryRep) -> UnitaryRep:
    """Elementwise Kronecker product; basis pairs (i, j) in row-major order i*d2 + j.

    Raises ValueError, before allocating, when _check_tensor_size refuses it.
    """
    if not p1.group.same_table(p2.group):
        raise ValueError("group mismatch")
    _check_tensor_size(p1.group.order, p1.dim, p2.dim)
    dim = p1.dim * p2.dim
    mats = np.einsum("gik,gjl->gijkl", p1.matrices, p2.matrices).reshape(
        p1.group.order, dim, dim
    )
    return UnitaryRep(p1.group, dim, mats)


def unitarity_residual(rep: UnitaryRep) -> float:
    """max_g ||M(g) M(g)^H - I||_F."""
    prods = rep.matrices @ rep.matrices.conj().transpose(0, 2, 1)
    return float(np.max(np.linalg.norm(prods - np.eye(rep.dim), axis=(1, 2))))


def homomorphism_residual(rep: UnitaryRep) -> float:
    """Upper bound on max_{a,b} ||M(a) M(b) - M(a b)||_F for a unitary rep,
    zero iff it is a homomorphism.  With R(a) = max_b ||M(a) M(b) - M(a b)||_F,
    unitary M has R(e) = ||M(e) - I||_F, R(s^-1) <= 2 R(s) + R(e) and
    R(l a) <= R(a) + 2 R(l), so along a word of at most D generators or
    inverses, D the Cayley graph's diameter, R(a) <= (6 D + 1) max(R(e), R(s)).
    """
    group, mats = rep.group, rep.matrices
    gens, diameter = _generating_set(group)
    rho = float(np.linalg.norm(mats[group.identity] - np.eye(rep.dim)))
    for s in gens:
        rho = max(rho, float(np.max(np.linalg.norm(mats[s] @ mats - mats[group.mult[s]], axis=(1, 2)))))
    return (6 * diameter + 1) * rho


def matrix_coeff_fun(rep: UnitaryRep, vectors: list[np.ndarray] | np.ndarray) -> MatFun:
    """Stack matrix coefficients of rep over a tuple of vectors into a MatFun.

    With U the matrix whose columns are the given vectors, the value at
    g is U^H M(g) U; entry (i, j) pairs M(g) applied to the j-th vector
    against the i-th under the inner product <x, y> = sum x conj(y),
    linear in its first argument.  This orientation makes the output
    positive definite.
    """
    u = np.asarray(vectors, dtype=np.complex128)
    if u.ndim != 2:
        raise ValueError("vectors must be a list of equal-length 1-d arrays")
    if u.shape[1] != rep.dim:
        raise ValueError(f"vector length {u.shape[1]} does not match dim {rep.dim}")
    basis = u.T  # columns are the vectors
    vals = np.einsum("ri,grc,cj->gij", np.conj(basis), rep.matrices, basis, optimize=True)
    return MatFun(rep.group, u.shape[0], vals)


def check_tensor_nonneg(
    p1: UnitaryRep,
    u1s: list[np.ndarray] | np.ndarray,
    p2: UnitaryRep,
    u2s: list[np.ndarray] | np.ndarray,
) -> TheoremReport:
    """Averaged diagonal coefficient of a tensor product is nonnegative.

    Computes sum_g <(p1 x p2)(g) u, u> with u = sum_i u1_i x u2_i two
    ways: directly, and as the inner product of the two matrix
    coefficient functions (with the second conjugated entrywise), which
    reduces the claim to the nonnegative-pairing theorem.  Both routes
    must agree and be nonnegative.  The direct route never forms the
    Kronecker product: u is the row-major flattening of the d1 x d2
    matrix U = sum_i u1_i u2_i^T, and (A x B) u flattens A U B^T, so the
    sum is vdot(U, sum_g A_g U B_g^T).  The residuals are relative to
    ||phi1|| ||phi2|| of the two coefficient functions, so the verdict does
    not depend on the scale of the vectors, and judged at _PAIR_TOL.  The
    claim holds only for representations, which UnitaryRep checks when it
    is built.
    """
    if not p1.group.same_table(p2.group):
        raise ValueError("group mismatch")
    a1 = np.asarray(u1s, dtype=np.complex128)
    a2 = np.asarray(u2s, dtype=np.complex128)
    if a1.shape[0] != a2.shape[0]:
        raise ValueError(f"vector tuple counts differ: {a1.shape[0]} vs {a2.shape[0]}")

    u = a1.T @ a2
    direct = complex(np.vdot(u, np.sum(p1.matrices @ u @ p2.matrices.transpose(0, 2, 1), axis=0)))

    phi1 = matrix_coeff_fun(p1, a1)
    phi2 = matrix_coeff_fun(p2, a2)
    via_pairing = inner(phi1, conjugate(phi2))

    scale = max(l2_norm(phi1) * l2_norm(phi2), 1e-300)
    agreement = abs(direct - via_pairing) / scale
    negativity = max(0.0, -direct.real) / scale
    imaginary = abs(direct.imag) / scale
    residual = max(agreement, negativity, imaginary)
    report = TheoremReport("B", 1, p1.group.name, int(a1.shape[0]), residual / _PAIR_TOL, residual <= _PAIR_TOL)
    report.details = {"route": "tensor_product", "direct_sum": [direct.real, direct.imag],
                      "via_pairing": [via_pairing.real, via_pairing.imag]}
    if not report.passed:
        report.counterexample = {"u1s": [[z.real, z.imag] for v in a1 for z in v],
                                 "u2s": [[z.real, z.imag] for v in a2 for z in v]}
    return report


def rep_to_json(rep: UnitaryRep) -> dict:
    mats = np.stack([rep.matrices.real, rep.matrices.imag], axis=-1)
    return {"group_id": rep.group.name, "dim": rep.dim, "matrices": mats.tolist()}
