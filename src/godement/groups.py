"""Finite groups as immutable Cayley tables with 0-based element indices."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GroupTable",
    "Violation",
    "ValidationReport",
    "build_cyclic",
    "build_dihedral",
    "build_klein",
    "build_quaternion",
    "build_symmetric",
    "build_trivial",
    "direct_product",
    "is_abelian",
    "validate_group",
    "group_to_json",
    "group_from_json",
    "parse_group_spec",
    "canonical_spec",
]


@dataclass(frozen=True, eq=False)
class GroupTable:
    """A finite group: multiplication table, inverse table, identity index.

    Elements are the dense indices 0..order-1; ``labels`` are display
    metadata only.  Instances are immutable and safe to share across
    threads.  Summation against the table realizes integration with
    counting measure (every element has mass 1).  Each instance keeps
    private caches of the convolution gather index per matrix dimension
    (see matfun), of its generating set (see _generating_set) and of its
    Fourier basis (see fourier), which live and die with the table.  The
    tables parse_group_spec returns live for the whole process, one per
    canonical spec; the builders and group_from_json make a new table on
    every call.
    """

    order: int
    mult: np.ndarray  # (order, order) int, mult[a, b] = index of a*b
    inv: np.ndarray  # (order,) int
    identity: int
    labels: tuple[str, ...]
    name: str = "custom"

    def __post_init__(self) -> None:
        mult = np.ascontiguousarray(np.asarray(self.mult, dtype=np.intp))
        inv = np.ascontiguousarray(np.asarray(self.inv, dtype=np.intp))
        mult.flags.writeable = False
        inv.flags.writeable = False
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "inv", inv)
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        object.__setattr__(self, "_conv_index_cache", {})
        object.__setattr__(self, "_generators_cache", {})
        object.__setattr__(self, "_fourier_cache", {})

    def mul(self, a: int, b: int) -> int:
        return int(self.mult[a, b])

    def invert(self, a: int) -> int:
        return int(self.inv[a])

    def elements(self) -> range:
        return range(self.order)

    def same_table(self, other: "GroupTable") -> bool:
        """True when both tables define literally the same multiplication."""
        if self is other:
            return True
        return (
            self.order == other.order
            and self.identity == other.identity
            and np.array_equal(self.mult, other.mult)
        )


def _word_plan(t: GroupTable, letters: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Breadth-first search from the identity, multiplying by letters on the
    right: one level (new, parent, letter) per distance, with new = parent *
    letters[letter].  The elements of the levels and the identity make up the
    subgroup the letters generate, and the number of levels is the largest
    distance reached."""
    seen = np.zeros(t.order, dtype=bool)
    seen[t.identity] = True
    frontier = np.array([t.identity], dtype=np.intp)
    levels = []
    while frontier.size:
        # positions in a mask, not np.unique, which would import numpy.ma on first use
        reached = t.mult[np.ix_(frontier, letters)].ravel()
        where = np.full(t.order, -1, dtype=np.intp)
        where[reached] = np.arange(reached.size)  # one position of each reached element
        fresh = np.flatnonzero((where >= 0) & ~seen)
        if fresh.size:
            levels.append((fresh, frontier[where[fresh] // letters.size], where[fresh] % letters.size))
        seen[fresh] = True
        frontier = fresh
    return levels


def _generating_set(t: GroupTable) -> tuple[np.ndarray, int]:
    """A generating set of t and the diameter of its Cayley graph, cached on t.

    Greedy: elements are scanned in index order and each one outside the
    subgroup generated so far is kept, so every kept generator at least
    doubles that subgroup (Lagrange) and there are at most log2 |G| of
    them.  The diameter is the largest number of generators and inverses
    of generators whose product is needed to write an element.
    """
    cache = t._generators_cache
    found = cache.get("generators")
    if found is None:
        gens: list[int] = []
        seen, diameter = np.arange(t.order) == t.identity, 0
        for x in range(t.order):
            if not seen[x]:
                gens.append(x)
                letters = np.array(gens, dtype=np.intp)
                levels = _word_plan(t, np.concatenate([letters, t.inv[letters]]))
                for fresh, _, _ in levels:
                    seen[fresh] = True
                diameter = len(levels)
        generators = np.array(gens, dtype=np.intp)
        generators.flags.writeable = False
        found = cache.setdefault("generators", (generators, diameter))
    return found


@dataclass(frozen=True)
class Violation:
    kind: str
    witness: tuple[int, ...]


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _inverses_from_mult(mult: np.ndarray, identity: int) -> np.ndarray:
    order = mult.shape[0]
    inv = np.empty(order, dtype=np.intp)
    for a in range(order):
        hits = np.flatnonzero(mult[a] == identity)
        if hits.size != 1:
            raise ValueError(f"element {a} has {hits.size} right inverses")
        inv[a] = hits[0]
    return inv


def build_trivial() -> GroupTable:
    return build_cyclic(1)


def build_cyclic(m: int) -> GroupTable:
    """Additive group of integers mod m."""
    if m < 1:
        raise ValueError(f"cyclic group order must be >= 1, got {m}")
    idx = np.arange(m, dtype=np.intp)
    mult = (idx[:, None] + idx[None, :]) % m
    inv = (-idx) % m
    return GroupTable(
        order=m,
        mult=mult,
        inv=inv,
        identity=0,
        labels=tuple(str(a) for a in range(m)),
        name=f"cyclic:{m}",
    )


def build_dihedral(m: int) -> GroupTable:
    """Dihedral group of order 2m: rotations r^a at 0..m-1, reflections r^a s at m..2m-1."""
    if m < 2:
        raise ValueError(f"dihedral parameter must be >= 2, got {m}")
    order = 2 * m
    mult = np.empty((order, order), dtype=np.intp)
    for a in range(m):
        for b in range(m):
            mult[a, b] = (a + b) % m  # r^a r^b
            mult[a, m + b] = m + (a + b) % m  # r^a (r^b s)
            mult[m + a, b] = m + (a - b) % m  # (r^a s) r^b = r^(a-b) s
            mult[m + a, m + b] = (a - b) % m  # (r^a s)(r^b s) = r^(a-b)
    inv = _inverses_from_mult(mult, 0)
    labels = tuple(f"r{a}" for a in range(m)) + tuple(f"r{a}s" for a in range(m))
    return GroupTable(order=order, mult=mult, inv=inv, identity=0, labels=labels, name=f"dihedral:{m}")


def build_klein() -> GroupTable:
    """Klein four group, realized as the dihedral group with m=2."""
    return build_dihedral(2)


_QUATERNION_UNITS = {
    "1": np.eye(2, dtype=complex),
    "i": np.array([[1j, 0], [0, -1j]]),
    "j": np.array([[0, 1], [-1, 0]], dtype=complex),
    "k": np.array([[0, 1j], [1j, 0]]),
}


def build_quaternion() -> GroupTable:
    """Quaternion group Q8 built from its 2x2 complex matrix realization."""
    labels = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    mats = []
    for lab in labels:
        sign = -1.0 if lab.startswith("-") else 1.0
        mats.append(sign * _QUATERNION_UNITS[lab.lstrip("-")])
    order = 8
    mult = np.empty((order, order), dtype=np.intp)
    for a in range(order):
        for b in range(order):
            prod = mats[a] @ mats[b]
            matches = [c for c in range(order) if np.allclose(prod, mats[c])]
            if len(matches) != 1:
                raise AssertionError("quaternion unit product did not resolve uniquely")
            mult[a, b] = matches[0]
    inv = _inverses_from_mult(mult, 0)
    return GroupTable(order=order, mult=mult, inv=inv, identity=0, labels=labels, name="quaternion:8")


def build_symmetric(m: int) -> GroupTable:
    """Symmetric group S_m on all m! permutations in lexicographic order.

    Composition convention: (sigma * tau)(i) = sigma(tau(i)).  Each
    permutation is encoded as its base-m number, most significant digit
    first, so lexicographic order is ascending code order and a composed
    permutation is found by binary search.  Desk scale only; m is capped
    at 5.
    """
    if not 1 <= m <= 5:
        raise ValueError(f"symmetric group parameter must be in 1..5, got {m}")
    perms = np.array(list(itertools.permutations(range(m))), dtype=np.intp).reshape(-1, m)
    order = perms.shape[0]
    weights = m ** np.arange(m - 1, -1, -1, dtype=np.intp)
    codes = perms @ weights  # ascending
    composed = np.take_along_axis(perms[:, None, :], perms[None, :, :], axis=2)  # [a, b, i] = a(b(i))
    mult = np.searchsorted(codes, composed @ weights)
    inv = np.searchsorted(codes, np.argsort(perms, axis=1) @ weights)
    labels = tuple("".join(str(x) for x in p) for p in perms.tolist())
    return GroupTable(order=order, mult=mult, inv=inv, identity=0, labels=labels, name=f"symmetric:{m}")


def direct_product(g: GroupTable, h: GroupTable) -> GroupTable:
    """Componentwise product; pair (a, b) gets index a*|H| + b (second factor fastest)."""
    nh = h.order
    order = g.order * nh
    ga, hb = np.divmod(np.arange(order, dtype=np.intp), nh)
    # mult[(a1,b1),(a2,b2)] = (g.mult[a1,a2], h.mult[b1,b2])
    mult = g.mult[np.ix_(ga, ga)] * nh + h.mult[np.ix_(hb, hb)]
    inv = g.inv[ga] * nh + h.inv[hb]
    identity = g.identity * nh + h.identity
    labels = tuple(f"({g.labels[a]},{h.labels[b]})" for a, b in zip(ga, hb))
    return GroupTable(
        order=order,
        mult=mult,
        inv=inv,
        identity=identity,
        labels=labels,
        name=f"{g.name}x{h.name}",
    )


def is_abelian(t: GroupTable) -> bool:
    return bool(np.array_equal(t.mult, t.mult.T))


def validate_group(t: GroupTable) -> ValidationReport:
    """Check the group axioms on the table, reporting first witnesses.

    Failures are report content, never exceptions: corrupted tables are
    a supported input.
    """
    violations: list[Violation] = []
    m = np.asarray(t.mult)
    order = t.order

    if m.shape != (order, order):
        violations.append(Violation("shape", (m.shape[0] if m.ndim else -1,)))
        return ValidationReport(tuple(violations))
    if t.inv.shape != (order,):
        violations.append(Violation("shape", (int(t.inv.shape[0]),)))
        return ValidationReport(tuple(violations))
    if not (0 <= t.identity < order):
        violations.append(Violation("identity_range", (t.identity,)))
        return ValidationReport(tuple(violations))
    if m.min() < 0 or m.max() >= order or t.inv.min() < 0 or t.inv.max() >= order:
        violations.append(Violation("index_range", (int(m.min()), int(m.max()))))
        return ValidationReport(tuple(violations))

    e = t.identity
    bad = np.flatnonzero(m[e, :] != np.arange(order))
    if bad.size:
        violations.append(Violation("left_identity", (int(bad[0]),)))
    bad = np.flatnonzero(m[:, e] != np.arange(order))
    if bad.size:
        violations.append(Violation("right_identity", (int(bad[0]),)))

    bad = np.flatnonzero(m[np.arange(order), t.inv] != e)
    if bad.size:
        violations.append(Violation("right_inverse", (int(bad[0]),)))
    bad = np.flatnonzero(m[t.inv, np.arange(order)] != e)
    if bad.size:
        violations.append(Violation("left_inverse", (int(bad[0]),)))

    # (a*b)*c vs a*(b*c), full scan, first witnessing triple
    left = m[m, :]  # left[a, b, c] = m[m[a, b], c]
    right = m[:, m]  # right[a, b, c] = m[a, m[b, c]]
    mismatch = np.argwhere(left != right)
    if mismatch.size:
        a, b, c = (int(x) for x in mismatch[0])
        violations.append(Violation("associativity", (a, b, c)))

    for a in range(order):
        if len(set(int(x) for x in m[a, :])) != order:
            violations.append(Violation("latin_row", (a,)))
            break
    for b in range(order):
        if len(set(int(x) for x in m[:, b])) != order:
            violations.append(Violation("latin_col", (b,)))
            break

    return ValidationReport(tuple(violations))


def group_to_json(t: GroupTable) -> dict:
    return {
        "order": t.order,
        "mult": t.mult.tolist(),
        "inv": t.inv.tolist(),
        "identity": t.identity,
        "labels": list(t.labels),
    }


def group_from_json(obj: dict, name: str = "custom") -> GroupTable:
    try:
        return GroupTable(
            order=int(obj["order"]),
            mult=np.asarray(obj["mult"], dtype=np.intp),
            inv=np.asarray(obj["inv"], dtype=np.intp),
            identity=int(obj["identity"]),
            labels=tuple(obj.get("labels", [str(i) for i in range(int(obj["order"]))])),
            name=name,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed group JSON: {exc}") from exc


_SPEC_ALIASES = {
    "klein": "dihedral:2",
    "v4": "dihedral:2",
    "trivial": "cyclic:1",
    "q8": "quaternion:8",
    "quaternion": "quaternion:8",
}


def canonical_spec(spec: str) -> str:
    """Normalize a group spec string like 'z6', 'D4', 'cyclic:6', 'z2xz3'."""
    s = spec.strip().lower().replace(" ", "")
    if not s:
        raise ValueError("empty group spec")
    parts = s.split("x")
    canon = []
    for part in parts:
        part = _SPEC_ALIASES.get(part, part)
        if ":" in part:
            kind, _, arg = part.partition(":")
        else:
            head = part.rstrip("0123456789")
            kind, arg = head, part[len(head):]
        kind = {"z": "cyclic", "c": "cyclic", "d": "dihedral", "s": "symmetric", "q": "quaternion"}.get(
            kind, kind
        )
        if kind not in ("cyclic", "dihedral", "symmetric", "quaternion"):
            raise ValueError(f"unrecognized group spec {spec!r}")
        if kind == "quaternion":
            if arg not in ("", "8"):
                raise ValueError(f"unrecognized group spec {spec!r}")
            canon.append("quaternion:8")
            continue
        if not arg.isdigit():
            raise ValueError(f"unrecognized group spec {spec!r}")
        canon.append(f"{kind}:{int(arg)}")
    return "x".join(canon)


# One table per canonical spec for the life of the process, so that the
# per-table caches (gather index, generating set, Fourier basis) are built
# once per process.  Tables are immutable; threads that race on a first
# build make equal tables and setdefault keeps one of them.
_SPEC_TABLES: dict[str, GroupTable] = {}


def parse_group_spec(spec: str) -> GroupTable:
    """The standard group of a spec string (see canonical_spec), built on
    first use and then shared: equal specs give the same table object."""
    canon = canonical_spec(spec)
    table = _SPEC_TABLES.get(canon)
    if table is None:
        table = _SPEC_TABLES.setdefault(canon, _build_spec(canon))
    return table


def _build_spec(canon: str) -> GroupTable:
    builders = {
        "cyclic": build_cyclic,
        "dihedral": build_dihedral,
        "symmetric": build_symmetric,
    }
    tables: list[GroupTable] = []
    for part in canon.split("x"):
        kind, _, arg = part.partition(":")
        if kind == "quaternion":
            tables.append(build_quaternion())
        else:
            tables.append(builders[kind](int(arg)))
    result = tables[0]
    for t in tables[1:]:
        result = direct_product(result, t)
    return result
