"""Unitary representations of finite groups and their matrix-coefficient functions.

A matrix coefficient function built from a representation and a tuple of
vectors is always positive definite, and pairings of two such functions
realize the nonnegativity of averaged diagonal coefficients of tensor
product representations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import GroupTable, _check_array_size, _generating_set
from .matfun import MatFun, _power_of_two_unit, conjugate, inner
from .theorems import _PAIR_TOL, TheoremReport, _pair_check

__all__ = [
    "UnitaryRep",
    "regular_rep",
    "tensor_product",
    "matrix_coeff_fun",
    "check_tensor_nonneg",
    "unitarity_residual",
    "homomorphism_residual",
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


def regular_rep(group: GroupTable) -> UnitaryRep:
    """Left regular representation by permutation matrices: M(g) e_h = e_{g h}.

    Raises ValueError, before allocating, when _check_rep_size refuses it.
    """
    order = group.order
    _check_rep_size(order, order)
    mats = np.zeros((order, order, order), dtype=np.complex128)
    for g in range(order):
        mats[g, group.mult[g], np.arange(order)] = 1.0
    return UnitaryRep(group, order, mats)


def _check_rep_size(order: int, dim: int) -> None:
    """Raise ValueError when a representation of dimension dim on order
    elements, |G| dim^2 complex128 entries, would exceed groups._MAX_ARRAY_BYTES.
    It needs only the two numbers, so a caller can refuse a tensor product
    before building its factors."""
    _check_array_size(order * dim * dim * 16, f"representation of dimension {dim} on {order} elements",
                      "complex128 array")


def tensor_product(p1: UnitaryRep, p2: UnitaryRep) -> UnitaryRep:
    """Elementwise Kronecker product; basis pairs (i, j) in row-major order i*d2 + j.

    Raises ValueError, before allocating, when _check_rep_size refuses it.
    """
    if not p1.group.same_table(p2.group):
        raise ValueError("group mismatch")
    dim = p1.dim * p2.dim
    _check_rep_size(p1.group.order, dim)
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
    sum is vdot(U, sum_g A_g U B_g^T).  Each tuple is divided exactly by a
    power of two and the pair judged by theorems._pair_check, so the verdict
    does not depend on the scale of the vectors; the sums are reported scaled
    back, and a failure has the vectors as counterexample.  The claim holds
    only for representations, which UnitaryRep checks when it is built.
    """
    if not p1.group.same_table(p2.group):
        raise ValueError("group mismatch")
    a1 = np.asarray(u1s, dtype=np.complex128)
    a2 = np.asarray(u2s, dtype=np.complex128)
    if a1.shape[0] != a2.shape[0]:
        raise ValueError(f"vector tuple counts differ: {a1.shape[0]} vs {a2.shape[0]}")
    unit1, unit2 = _power_of_two_unit(a1), _power_of_two_unit(a2)
    b1, b2 = a1 / unit1, a2 / unit2

    def back(x: float) -> float:  # the sums are quadratic in each tuple; exact short of overflow
        return x * unit1 * unit1 * unit2 * unit2

    def measure(phi_u, psi_u, scale, unit):
        u = b1.T @ b2
        direct = complex(np.vdot(u, np.sum(p1.matrices @ u @ p2.matrices.transpose(0, 2, 1), axis=0)))
        via_pairing = inner(phi_u, psi_u)
        in_range = direct / unit  # direct in the frame of phi_u and psi_u
        residual = max(abs(in_range - via_pairing), max(0.0, -in_range.real), abs(in_range.imag)) / scale
        return residual, {"route": "tensor_product", "direct_sum": [back(direct.real), back(direct.imag)],
                          "via_pairing": [back(via_pairing.real * unit), back(via_pairing.imag * unit)]}

    def vectors():  # the counterexample: each tuple as [re, im] pairs
        return {name: [[z.real, z.imag] for v in a for z in v] for name, a in (("u1s", a1), ("u2s", a2))}

    return _pair_check("B", matrix_coeff_fun(p1, b1), conjugate(matrix_coeff_fun(p2, b2)), measure, vectors)
