import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from godement import (
    GroupTable,
    build_cyclic,
    build_dihedral,
    build_klein,
    build_symmetric,
    build_trivial,
    canonical_spec,
    direct_product,
    group_from_json,
    group_to_json,
    is_abelian,
    parse_group_spec,
    validate_group,
)
from godement.groups import _generating_set


def element_order(t: GroupTable, a: int) -> int:
    x, k = a, 1
    while x != t.identity:
        x = t.mul(x, a)
        k += 1
    return k


def center_size(t: GroupTable) -> int:
    # brute-force centralizer scan
    return sum(
        1 for a in t.elements() if all(t.mul(a, b) == t.mul(b, a) for b in t.elements())
    )


def tables_isomorphic(g: GroupTable, h: GroupTable) -> bool:
    """Brute-force relabel comparison; only for tiny orders."""
    if g.order != h.order:
        return False
    n = g.order
    for perm in itertools.permutations(range(n)):
        if perm[g.identity] != h.identity:
            continue
        if all(
            perm[g.mul(a, b)] == h.mul(perm[a], perm[b])
            for a in range(n)
            for b in range(n)
        ):
            return True
    return False


class TestCyclic:
    def test_trivial_group(self):
        t = build_cyclic(1)
        assert t.order == 1
        assert t.mult.tolist() == [[0]]

    def test_order_two_self_inverse(self):
        t = build_cyclic(2)
        assert t.inv.tolist() == [0, 1]
        assert t.mul(1, 1) == 0

    def test_order_four_inverses_match_enumeration(self):
        t = build_cyclic(4)
        expected = []
        for a in range(4):
            expected.append(next(b for b in range(4) if (a + b) % 4 == 0))
        assert t.inv.tolist() == expected == [0, 3, 2, 1]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            build_cyclic(0)

    @given(st.integers(min_value=1, max_value=12))
    @settings(max_examples=12, deadline=None)
    def test_valid_and_abelian(self, m):
        t = build_cyclic(m)
        assert validate_group(t).ok
        assert is_abelian(t)
        assert t.inv[t.inv].tolist() == list(range(m))


class TestDihedral:
    def test_klein_four(self):
        t = build_dihedral(2)
        assert t.order == 4
        assert all(t.invert(a) == a for a in t.elements())
        assert is_abelian(t)
        assert validate_group(t).ok

    def test_m3_nonabelian_witness(self):
        t = build_dihedral(3)
        assert t.order == 6
        witnesses = [
            (a, b)
            for a in t.elements()
            for b in t.elements()
            if t.mul(a, b) != t.mul(b, a)
        ]
        assert witnesses

    def test_m4_center_has_two_elements(self):
        assert center_size(build_dihedral(4)) == 2

    def test_rejects_m1(self):
        with pytest.raises(ValueError):
            build_dihedral(1)

    @given(st.integers(min_value=2, max_value=8))
    @settings(max_examples=7, deadline=None)
    def test_valid(self, m):
        t = build_dihedral(m)
        assert t.order == 2 * m
        assert validate_group(t).ok
        assert is_abelian(t) == (m == 2)


class TestSymmetric:
    def test_s2_table_matches_cyclic2(self):
        assert build_symmetric(2).mult.tolist() == build_cyclic(2).mult.tolist()

    def test_s3_nonabelian_order_six(self):
        t = build_symmetric(3)
        assert t.order == 6
        assert not is_abelian(t)
        assert validate_group(t).ok

    def test_s4_order(self):
        assert build_symmetric(4).order == 24

    def test_composition_convention(self):
        # sigma = (1 2 0), tau = (0 2 1): (sigma . tau)(i) = sigma(tau(i))
        t = build_symmetric(3)
        perms = list(itertools.permutations(range(3)))
        sigma, tau = (1, 2, 0), (0, 2, 1)
        composed = tuple(sigma[tau[i]] for i in range(3))
        assert t.mul(perms.index(sigma), perms.index(tau)) == perms.index(composed)

    def test_rejects_desk_scale_violation(self):
        with pytest.raises(ValueError):
            build_symmetric(6)

    def test_s5_is_buildable(self):
        assert build_symmetric(5).order == 120

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_matches_itertools_reference(self, m):
        # the table as a plain double loop over lexicographic permutations
        perms = list(itertools.permutations(range(m)))
        index = {p: i for i, p in enumerate(perms)}
        mult = [[index[tuple(s[t[i]] for i in range(m))] for t in perms] for s in perms]
        inv = [index[tuple(s.index(i) for i in range(m))] for s in perms]
        table = build_symmetric(m)
        assert table.mult.tolist() == mult
        assert table.inv.tolist() == inv
        assert table.identity == index[tuple(range(m))]
        assert table.labels == tuple("".join(str(x) for x in p) for p in perms)


def subgroup(t: GroupTable, gens) -> set[int]:
    """Closure of gens under the group law, by brute force."""
    members = {t.identity}
    while True:
        grown = members | {t.mul(a, g) for a in members for g in gens}
        if grown == members:
            return members
        members = grown


def word_lengths(t: GroupTable, letters) -> dict[int, int]:
    """Shortest length of a word in letters, multiplied on the right, per element."""
    dist, frontier = {t.identity: 0}, [t.identity]
    while frontier:
        frontier = [t.mul(a, s) for a in frontier for s in letters]
        frontier = [x for x in dict.fromkeys(frontier) if x not in dist]
        depth = max(dist.values()) + 1
        dist.update((x, depth) for x in frontier)
    return dist


class TestGeneratingSet:
    @pytest.mark.parametrize("spec", ["trivial", "z2", "z6", "z24", "d4", "q8", "s3", "s4", "s5", "z2xd6"])
    def test_generates_and_each_generator_doubles(self, spec):
        t = parse_group_spec(spec)
        gens, diameter = _generating_set(t)
        sizes = [len(subgroup(t, gens[:k])) for k in range(len(gens) + 1)]
        assert sizes[-1] == t.order
        assert all(b >= 2 * a for a, b in zip(sizes, sizes[1:]))
        letters = [int(g) for g in gens] + [t.invert(int(g)) for g in gens]
        assert diameter == max(word_lengths(t, letters).values())

    def test_cached_per_table(self):
        t = build_symmetric(4)
        assert _generating_set(t) is _generating_set(t)
        assert _generating_set(build_symmetric(4)) is not _generating_set(t)
        assert np.array_equal(_generating_set(build_symmetric(4))[0], _generating_set(t)[0])


class TestQuaternion:
    def test_basics(self, q8):
        assert q8.order == 8
        assert validate_group(q8).ok
        assert not is_abelian(q8)

    def test_exactly_one_element_of_order_two(self, q8):
        orders = [element_order(q8, a) for a in q8.elements()]
        assert orders.count(2) == 1

    def test_not_dihedral(self, q8):
        assert not tables_isomorphic(q8, build_dihedral(4))


class TestDirectProduct:
    def test_z2_z2_is_klein(self):
        assert tables_isomorphic(direct_product(build_cyclic(2), build_cyclic(2)), build_klein())

    def test_product_with_trivial_is_same_table(self, z6):
        prod = direct_product(z6, build_trivial())
        assert prod.mult.tolist() == z6.mult.tolist()
        assert prod.inv.tolist() == z6.inv.tolist()

    def test_z2_z3_is_z6(self):
        prod = direct_product(build_cyclic(2), build_cyclic(3))
        z6 = build_cyclic(6)
        assert sorted(element_order(prod, a) for a in prod.elements()) == sorted(
            element_order(z6, a) for a in z6.elements()
        )
        assert tables_isomorphic(prod, z6)

    def test_valid(self, d3):
        assert validate_group(direct_product(d3, build_cyclic(2))).ok


class TestValidate:
    def test_clean_on_all_constructors(self, sample_groups):
        for t in sample_groups + [build_symmetric(4), build_klein()]:
            report = validate_group(t)
            assert report.ok, (t.name, report.violations)

    def test_corrupted_entry_reported(self):
        t = build_cyclic(4)
        mult = t.mult.copy()
        mult[1, 1] = 3
        bad = GroupTable(4, mult, t.inv.copy(), 0, t.labels)
        report = validate_group(bad)
        assert not report.ok
        kinds = {v.kind for v in report.violations}
        assert kinds & {"associativity", "latin_row", "latin_col"}
        assoc = [v for v in report.violations if v.kind == "associativity"]
        if assoc:
            a, b, c = assoc[0].witness
            m = bad.mult
            assert m[m[a, b], c] != m[a, m[b, c]]

    def test_wrong_identity_reported(self):
        t = build_cyclic(4)
        bad = GroupTable(4, t.mult.copy(), t.inv.copy(), 1, t.labels)
        report = validate_group(bad)
        assert not report.ok
        assert {v.kind for v in report.violations} & {"left_identity", "right_identity"}

    def test_bad_inverse_reported(self):
        t = build_cyclic(4)
        inv = t.inv.copy()
        inv[1] = 1
        report = validate_group(GroupTable(4, t.mult.copy(), inv, 0, t.labels))
        assert {v.kind for v in report.violations} & {"left_inverse", "right_inverse"}


class TestJson:
    def test_round_trip(self, d4):
        obj = group_to_json(d4)
        # must survive an actual serialization
        restored = group_from_json(json.loads(json.dumps(obj)))
        assert restored.mult.tolist() == d4.mult.tolist()
        assert restored.inv.tolist() == d4.inv.tolist()
        assert restored.identity == d4.identity
        assert restored.labels == d4.labels

    def test_schema_fields(self, z2):
        obj = group_to_json(z2)
        assert set(obj) == {"order", "mult", "inv", "identity", "labels"}
        assert obj == {
            "order": 2,
            "mult": [[0, 1], [1, 0]],
            "inv": [0, 1],
            "identity": 0,
            "labels": ["0", "1"],
        }

    def test_malformed_raises(self):
        with pytest.raises(ValueError):
            group_from_json({"order": 2})


class TestSpecs:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("z6", "cyclic:6"),
            ("C4", "cyclic:4"),
            ("d4", "dihedral:4"),
            ("klein", "dihedral:2"),
            ("q8", "quaternion:8"),
            ("s3", "symmetric:3"),
            ("z2xz3", "cyclic:2xcyclic:3"),
        ],
    )
    def test_canonical(self, spec, expected):
        assert canonical_spec(spec) == expected

    def test_parse_builds_valid_groups(self):
        for spec in ("z2", "z6", "klein", "d3", "d4", "q8", "s3", "s4", "z2xz3"):
            assert validate_group(parse_group_spec(spec)).ok

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            parse_group_spec("banana")

    def test_one_table_per_spec(self):
        table = parse_group_spec("s5")
        assert parse_group_spec("S5") is table and parse_group_spec("symmetric:5") is table
        assert parse_group_spec("z2xs4") is parse_group_spec("cyclic:2 x S4")
        assert parse_group_spec("s4") is not table
        fresh = build_symmetric(5)  # the builders still make a new table each call
        assert fresh is not table and fresh.same_table(table)
