import numpy as np
import pytest

from godement import (
    GroupTable,
    MatFun,
    build_cyclic,
    build_dihedral,
    build_quaternion,
    build_symmetric,
    make_pd,
    matfun_to_json,
    random_matfun,
    validate_group,
)


# one spec per family and product shape
ARRAY_LEVEL_SPECS = ("z2", "z6", "klein", "d3", "d4", "q8", "s3", "s4", "z2xz3", "z2xd6")


@pytest.fixture(scope="session")
def z2() -> GroupTable:
    return build_cyclic(2)


@pytest.fixture(scope="session")
def z6() -> GroupTable:
    return build_cyclic(6)


@pytest.fixture(scope="session")
def d3() -> GroupTable:
    return build_dihedral(3)


@pytest.fixture(scope="session")
def d4() -> GroupTable:
    return build_dihedral(4)


@pytest.fixture(scope="session")
def s3() -> GroupTable:
    return build_symmetric(3)


@pytest.fixture(scope="session")
def q8() -> GroupTable:
    return build_quaternion()


@pytest.fixture(scope="session")
def sample_groups(z6, d3, d4, q8, s3) -> list[GroupTable]:
    return [z6, d3, d4, q8, s3]


def phi_21(z2: GroupTable) -> MatFun:
    """The scalar function (2, 1) on the two-element group."""
    return MatFun(z2, 1, np.array([[[2.0]], [[1.0]]], dtype=complex))


def random_pd(group: GroupTable, n: int, seed: int) -> MatFun:
    return make_pd(random_matfun(group, n, seed))


def relabeled_s3() -> GroupTable:
    """S3 with its elements shuffled, so the identity is not index 0."""
    s3 = build_symmetric(3)
    perm = np.array([4, 2, 5, 0, 3, 1])  # new index of old element i
    old = np.argsort(perm)  # old element at new index j
    mult = perm[s3.mult[old][:, old]]
    table = GroupTable(order=6, mult=mult, inv=perm[s3.inv[old]],
                       identity=int(perm[s3.identity]), labels=tuple("abcdef"))
    assert validate_group(table).ok and table.identity != 0
    return table


def legacy_json(phi: MatFun) -> dict:
    """phi in the MatFun JSON layout of earlier versions: values as nested
    [re, im] pairs of shape (|G|, n, n, 2), written by Python's float repr.
    The reference the base64 layout is checked against."""
    obj = matfun_to_json(phi)
    del obj["values_b64"]
    obj["values"] = np.stack([phi.values.real, phi.values.imag], axis=-1).tolist()
    return obj
