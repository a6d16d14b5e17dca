import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from godement import (
    GroupTable,
    Violation,
    build_cyclic,
    build_dihedral,
    build_symmetric,
    canonical_spec,
    direct_product,
    group_from_json,
    group_to_json,
    matfun_to_json,
    parse_group_spec,
    random_matfun,
    validate_group,
)
import godement.groups
from godement.groups import _MAX_ARRAY_BYTES, _generating_set, _generator_words, _spec_order, _word_plan


def element_order(t: GroupTable, a: int) -> int:
    x, k = a, 1
    while x != t.identity:
        x = int(t.mult[x, a])
        k += 1
    return k


def center_size(t: GroupTable) -> int:
    # brute-force centralizer scan
    return sum(
        1 for a in range(t.order) if all(t.mult[a, b] == t.mult[b, a] for b in range(t.order))
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
            perm[g.mult[a, b]] == h.mult[perm[a], perm[b]]
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
        assert int(t.mult[1, 1]) == 0

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
        assert np.array_equal(t.mult, t.mult.T)
        assert t.inv[t.inv].tolist() == list(range(m))


class TestDihedral:
    @pytest.mark.parametrize("m", [2, 3, 7])
    def test_table_follows_the_rotation_and_reflection_rules(self, m):
        # the element-by-element rules the vectorized table replaced
        t = build_dihedral(m)
        for a, b in itertools.product(range(m), repeat=2):
            assert t.mult[a, b] == (a + b) % m and t.mult[a, m + b] == m + (a + b) % m
            assert t.mult[m + a, b] == m + (a - b) % m and t.mult[m + a, m + b] == (a - b) % m
        assert all(t.mult[x, t.inv[x]] == 0 for x in range(t.order))

    def test_klein_four(self):
        t = build_dihedral(2)
        assert t.order == 4
        assert all(t.inv[a] == a for a in range(t.order))
        assert np.array_equal(t.mult, t.mult.T)
        assert validate_group(t).ok

    def test_m3_nonabelian_witness(self):
        t = build_dihedral(3)
        assert t.order == 6
        witnesses = [
            (a, b)
            for a in range(t.order)
            for b in range(t.order)
            if t.mult[a, b] != t.mult[b, a]
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
        assert np.array_equal(t.mult, t.mult.T) == (m == 2)


class TestSymmetric:
    def test_s2_table_matches_cyclic2(self):
        assert build_symmetric(2).mult.tolist() == build_cyclic(2).mult.tolist()

    def test_s3_nonabelian_order_six(self):
        t = build_symmetric(3)
        assert t.order == 6
        assert not np.array_equal(t.mult, t.mult.T)
        assert validate_group(t).ok

    def test_s4_order(self):
        assert build_symmetric(4).order == 24

    def test_composition_convention(self):
        # sigma = (1 2 0), tau = (0 2 1): (sigma . tau)(i) = sigma(tau(i))
        t = build_symmetric(3)
        perms = list(itertools.permutations(range(3)))
        sigma, tau = (1, 2, 0), (0, 2, 1)
        composed = tuple(sigma[tau[i]] for i in range(3))
        assert int(t.mult[perms.index(sigma), perms.index(tau)]) == perms.index(composed)

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
        grown = members | {int(t.mult[a, g]) for a in members for g in gens}
        if grown == members:
            return members
        members = grown


def word_lengths(t: GroupTable, letters) -> dict[int, int]:
    """Shortest length of a word in letters, multiplied on the right, per element."""
    dist, frontier = {t.identity: 0}, [t.identity]
    while frontier:
        frontier = [int(t.mult[a, s]) for a in frontier for s in letters]
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
        letters = [int(g) for g in gens] + [int(t.inv[g]) for g in gens]
        assert diameter == max(word_lengths(t, letters).values())

    def test_cached_per_table(self):
        t = build_symmetric(4)
        assert _generating_set(t) is _generating_set(t)
        assert _generating_set(build_symmetric(4)) is not _generating_set(t)
        assert np.array_equal(_generating_set(build_symmetric(4))[0], _generating_set(t)[0])


def restart_generating_set(t: GroupTable):
    """The greedy generating set that searches again from the identity with
    all its letters each time it keeps a generator: its generators and the
    levels of its last search."""
    gens, seen, levels = [], np.arange(t.order) == t.identity, []
    for x in range(t.order):
        if not seen[x]:
            gens.append(x)
            letters = np.array(gens, dtype=np.intp)
            levels = _word_plan(t, np.concatenate([letters, t.inv[letters]]))
            for fresh, _, _ in levels:
                seen[fresh] = True
    return gens, levels


def max_semilattice(order: int) -> GroupTable:
    """mult[x, y] = max(x, y) with identity 0 and every inverse 0: associative,
    but no group, and no element but 0 is a product of two others, so the
    greedy generating set keeps all the others."""
    idx = np.arange(order)
    return GroupTable(order, np.maximum.outer(idx, idx), np.zeros(order, dtype=int), 0, tuple(map(str, idx)))


class TestGeneratingSetClosure:
    @pytest.mark.parametrize("spec", ["z2xs5", "s5", "d150", "q8xq8"])
    def test_matches_the_restarting_search(self, spec):
        # a fresh copy of the table, so that its generating set is built here
        t = group_from_json(group_to_json(parse_group_spec(spec)))
        gens, levels = restart_generating_set(t)
        got, diameter = _generating_set(t)
        assert got.tolist() == gens and diameter == len(levels)
        words = _generator_words(t)
        assert len(words) == len(levels)
        for level, expected in zip(words, levels):
            assert all(np.array_equal(a, b) for a, b in zip(level, expected))

    def test_one_word_plan_per_table(self, monkeypatch):
        calls = []
        real = godement.groups._word_plan
        monkeypatch.setattr(godement.groups, "_word_plan", lambda t, letters: calls.append(t) or real(t, letters))
        for t in (group_from_json(group_to_json(build_symmetric(4))), max_semilattice(40)):
            _generating_set(t)
            _generator_words(t)
            validate_group(t)
            assert calls == [t]
            calls.clear()

    def test_semilattice_keeps_every_element_and_reports_the_same(self):
        # a search from the identity per kept generator costs about |G|^3 here
        t = max_semilattice(600)
        gens, diameter = _generating_set(t)
        assert gens.tolist() == list(range(1, 600)) and diameter == 1
        assert validate_group(t).violations == (
            Violation("right_inverse", (1,)), Violation("left_inverse", (1,)),
            Violation("latin_row", (1,)), Violation("latin_col", (1,)),
        )


class TestQuaternion:
    def test_basics(self, q8):
        assert q8.order == 8
        assert validate_group(q8).ok
        assert not np.array_equal(q8.mult, q8.mult.T)

    def test_exactly_one_element_of_order_two(self, q8):
        orders = [element_order(q8, a) for a in range(q8.order)]
        assert orders.count(2) == 1

    def test_not_dihedral(self, q8):
        assert not tables_isomorphic(q8, build_dihedral(4))

    def test_table_is_the_product_of_the_unit_matrices(self, q8):
        units = {"1": np.eye(2), "i": np.diag([1j, -1j]), "j": np.array([[0, 1], [-1, 0]]),
                 "k": np.array([[0, 1j], [1j, 0]])}
        mats = [(-1 if lab.startswith("-") else 1) * units[lab.lstrip("-")] for lab in q8.labels]
        for a, b in itertools.product(range(q8.order), repeat=2):
            assert np.array_equal(mats[a] @ mats[b], mats[q8.mult[a, b]])
        assert all(q8.mult[x, q8.inv[x]] == q8.identity for x in range(q8.order))


class TestDirectProduct:
    def test_z2_z2_is_klein(self):
        assert tables_isomorphic(direct_product(build_cyclic(2), build_cyclic(2)), build_dihedral(2))

    def test_product_with_trivial_is_same_table(self, z6):
        prod = direct_product(z6, build_cyclic(1))
        assert prod.mult.tolist() == z6.mult.tolist()
        assert prod.inv.tolist() == z6.inv.tolist()

    def test_z2_z3_is_z6(self):
        prod = direct_product(build_cyclic(2), build_cyclic(3))
        z6 = build_cyclic(6)
        assert sorted(element_order(prod, a) for a in range(prod.order)) == sorted(
            element_order(z6, a) for a in range(z6.order)
        )
        assert tables_isomorphic(prod, z6)

    def test_valid(self, d3):
        assert validate_group(direct_product(d3, build_cyclic(2))).ok


class TestValidate:
    def test_clean_on_all_constructors(self, sample_groups):
        for t in sample_groups + [build_symmetric(4), build_dihedral(2)]:
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

    @pytest.mark.parametrize("spec", ["d5", "s3", "z7"])
    def test_single_entry_corruptions_agree_with_a_full_scan(self, spec):
        # associativity is checked only at the identity and the letters of the
        # generating set (Light's test); on every table one entry away from the
        # group, the identity's row and column included, it is reported iff a
        # full scan finds a violating triple, and its witness is one; latin
        # rows and columns keep the first failing index
        t = parse_group_spec(spec)
        for a, b, value in itertools.product(range(t.order), repeat=3):
            m = t.mult.copy()
            m[a, b] = value
            violating = m[m, :] != m[:, m]  # [x, g, y]: (x*g)*y vs x*(g*y)
            rows = [x for x in range(t.order) if len(set(m[x])) != t.order]
            cols = [x for x in range(t.order) if len(set(m[:, x])) != t.order]
            found = {v.kind: v.witness for v in validate_group(GroupTable(t.order, m, t.inv, 0, t.labels)).violations}
            assert ("associativity" in found) == violating.any()
            if "associativity" in found:
                assert violating[found["associativity"]]
            assert found.get("latin_row") == ((rows[0],) if rows else None)
            assert found.get("latin_col") == ((cols[0],) if cols else None)

    def test_a_loop_fails_only_associativity(self):
        # a Latin square with an identity and inverses that is not a group
        m = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]])
        (violation,) = validate_group(GroupTable(5, m, np.arange(5), 0, tuple("01234"))).violations
        x, g, y = violation.witness
        assert violation.kind == "associativity" and m[m[x, g], y] != m[x, m[g, y]]

    @pytest.mark.parametrize("mult, only", [
        ([[0, 0, 0], [1, 1, 1], [2, 1, 1]], 0),  # the identity
        ([[0, 0, 0], [0, 0, 0], [0, 1, 0]], 2),  # the second generator
        ([[0, 0, 2], [0, 0, 2], [0, 1, 2]], 2),  # the inverse of the only generator
    ], ids=["identity", "second-generator", "inverse"])
    def test_a_table_that_fails_at_one_letter_only(self, mult, only):
        # order-3 tables on which (x*g)*y != x*(g*y) only for g = only; a check
        # that skipped that letter would pass them
        m = np.array(mult)
        assert set(np.argwhere(m[m, :] != m[:, m])[:, 1]) == {only}
        t = GroupTable(3, m, np.array([0, 2, 1]), 0, tuple("abc"))
        assoc = [v.witness for v in validate_group(t).violations if v.kind == "associativity"]
        assert [g for _, g, _ in assoc] == [only]

    def test_generating_set_is_left_in_the_cache(self):
        t = group_from_json(group_to_json(build_symmetric(4)))
        assert "generators" not in t._cache
        assert validate_group(t).ok
        assert t._cache["generators"] is _generating_set(t)

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

    @pytest.mark.parametrize("field, value, message", [
        ("order", 2.9, "order and identity must be JSON integers, got 2.9 and 0"),
        ("order", "2", "order and identity must be JSON integers, got '2' and 0"),
        ("identity", 0.7, "order and identity must be JSON integers, got 2 and 0.7"),
        ("identity", False, "order and identity must be JSON integers, got 2 and False"),
        ("mult", [[0.2, 1.9], [1, 0]], "mult must hold JSON integers, not float"),
        ("mult", [[0, "1"], [1, 0]], "mult must hold JSON integers, not str"),
        ("mult", [[0, 1], [1]], "mult must hold JSON integers, not list"),
        ("inv", [0, True], "inv must hold JSON integers, not bool"),
        ("labels", [], "labels must be a list of 2 strings"),
        ("labels", ["0", 1], "labels must be a list of 2 strings"),
        ("labels", "01", "labels must be a list of 2 strings"),
    ], ids=["order-float", "order-str", "identity-float", "identity-bool", "mult-float", "mult-str", "mult-ragged",
            "inv-bool", "labels-empty", "labels-int", "labels-str"])
    def test_every_field_must_have_its_json_type(self, z2, field, value, message):
        # each of these once loaded as Z2, truncated or cast by int() and numpy;
        # labels [] loaded too, and direct_product on it raised IndexError
        obj = {**group_to_json(z2), field: value}
        with pytest.raises(ValueError, match=f"^malformed group JSON: {re.escape(message)}$"):
            group_from_json(json.loads(json.dumps(obj)))

    def test_labels_default_to_the_indices(self, z2):
        obj = group_to_json(z2)
        del obj["labels"]
        assert group_from_json(obj).labels == ("0", "1")


class TestIntegerFields:
    @pytest.mark.parametrize("order, identity", [(np.int64(3), 0), (3, np.int64(0)), (np.int32(3), np.uint8(0))])
    def test_numpy_integers_are_stored_as_ints(self, order, identity):
        # a numpy order or identity once stayed numpy, and its JSON did not serialize
        z3 = build_cyclic(3)
        t = GroupTable(order, z3.mult, z3.inv, identity, z3.labels)
        assert type(t.order) is int and type(t.identity) is int
        assert json.loads(json.dumps(group_to_json(t))) == group_to_json(z3)
        f = random_matfun(t, 1, 0)
        assert json.loads(json.dumps(matfun_to_json(f)))["group"] == group_to_json(z3)

    @pytest.mark.parametrize("field, value", [
        ("order", 3.0), ("order", True), ("order", "3"), ("order", np.float64(3.0)),
        ("identity", 0.0), ("identity", False), ("identity", "0"),
    ])
    def test_non_integers_are_refused(self, field, value):
        # GroupTable(3.0, ...) was accepted, and validate_group then raised IndexError
        z3 = build_cyclic(3)
        fields = {"order": 3, "identity": 0, field: value}
        with pytest.raises(ValueError, match=f"^GroupTable {field} must be an integer, got {re.escape(repr(value))}$"):
            GroupTable(fields["order"], z3.mult, z3.inv, fields["identity"], z3.labels)

    def test_range_is_left_to_validate_group(self):
        z3 = build_cyclic(3)
        t = GroupTable(3, z3.mult, z3.inv, np.int64(5), z3.labels)
        assert validate_group(t).violations == (Violation("identity_range", (5,)),)


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

    @pytest.mark.parametrize("spec", ["z:\u0663", "cyclic:\u00b2"])
    def test_non_ascii_digits_are_refused(self, spec):
        # str.isdigit accepts an Arabic-Indic three and a superscript two
        for parse in (canonical_spec, parse_group_spec):
            with pytest.raises(ValueError, match="unrecognized group spec"):
                parse(spec)

    @pytest.mark.parametrize("spec", ["z1", "z6", "d2", "d7", "q8", "s1", "s3", "s5", "z2xs4", "d3xq8xz5"])
    def test_spec_order_is_the_table_order(self, spec):
        assert _spec_order(canonical_spec(spec)) == parse_group_spec(spec).order

    @pytest.mark.parametrize("spec", ["z200000", "z16385", "z200xz200", "s5xs5xz2"])
    def test_spec_over_the_byte_limit_is_refused_before_allocating(self, spec):
        # z200000 once died in numpy with an _ArrayMemoryError
        assert _spec_order(canonical_spec(spec)) ** 2 * 8 > _MAX_ARRAY_BYTES
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="Cayley table, over the 2 GiB limit"):
                parse_group_spec(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("spec,message", [("s1000000", "1..5, got 1000000"), ("z200000xs6", "1..5, got 6"),
                                              ("z200000xz0", ">= 1, got 0"), ("d1", ">= 2, got 1")])
    def test_refused_factor_raises_its_builders_error_before_allocating(self, spec, message):
        # no m! is taken past S_5, and no other factor is built first
        tracemalloc.start()
        try:
            for refuse in (_spec_order, parse_group_spec):
                with pytest.raises(ValueError, match=message):
                    refuse(canonical_spec(spec))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_one_table_per_spec(self):
        table = parse_group_spec("s5")
        assert parse_group_spec("S5") is table and parse_group_spec("symmetric:5") is table
        assert parse_group_spec("z2xs4") is parse_group_spec("cyclic:2 x S4")
        assert parse_group_spec("s4") is not table
        fresh = build_symmetric(5)  # the builders still make a new table each call
        assert fresh is not table and fresh.same_table(table)
