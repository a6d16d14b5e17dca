"""Finite groups as immutable Cayley tables with 0-based element indices."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

__all__ = [
    "GroupTable",
    "Violation",
    "ValidationReport",
    "build_cyclic",
    "build_dihedral",
    "build_quaternion",
    "build_symmetric",
    "direct_product",
    "validate_group",
    "group_to_json",
    "group_from_json",
    "parse_group_spec",
    "canonical_spec",
]


def _as_int(value: object, what: str) -> int:
    """value as a plain int; ValueError unless it is an int or a numpy
    integer, so a bool, a float or a str is refused, not truncated or kept."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True, eq=False)
class GroupTable:
    """A finite group: multiplication table, inverse table, identity index.

    Elements are the dense indices 0..order-1; ``labels`` are display
    metadata only.  Instances are immutable and safe to share across
    threads.  Summation against the table realizes integration with
    counting measure (every element has mass 1).  Each instance keeps one
    private cache, which lives and dies with the table, of what is derived
    from it alone: the table of x y^-1, the convolution and adjoint gather
    indices per matrix dimension (see matfun), its generating set (see
    _generating_set) and its Fourier basis (see fourier).  The tables
    parse_group_spec returns live for the whole process, one per canonical
    spec; the builders and group_from_json make a new table on every call.
    """

    order: int
    mult: np.ndarray  # (order, order) int, mult[a, b] = index of a*b
    inv: np.ndarray  # (order,) int
    identity: int
    labels: tuple[str, ...]
    name: str = "custom"

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", _as_int(self.order, "GroupTable order"))
        object.__setattr__(self, "identity", _as_int(self.identity, "GroupTable identity"))
        mult = np.ascontiguousarray(np.asarray(self.mult, dtype=np.intp))
        inv = np.ascontiguousarray(np.asarray(self.inv, dtype=np.intp))
        mult.flags.writeable = False
        inv.flags.writeable = False
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "inv", inv)
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        object.__setattr__(self, "_cache", {})

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
    of generators whose product is needed to write an element.  The closure
    grows with each kept generator: each new letter multiplies every element
    reached, and each newly reached element every letter, once, so on any
    table, a non-group keeping up to |G| - 1 generators included, the cost
    is O(|G| letters), with one _word_plan at the end.
    """
    cache = t._cache
    found = cache.get("generators")
    if found is None:
        gens: list[int] = []
        seen, is_letter = np.arange(t.order) == t.identity, np.zeros(t.order, dtype=bool)
        for x in range(t.order):
            if seen[x]:
                continue
            gens.append(x)
            new = [a for a in (x, int(t.inv[x])) if not is_letter[a]]  # x is not, or e x were seen
            is_letter[new] = True
            reached, letters = t.mult[np.ix_(np.flatnonzero(seen), new)].ravel(), np.flatnonzero(is_letter)
            while reached.size:
                hit = np.zeros(t.order, dtype=bool)
                hit[reached] = True
                fresh = np.flatnonzero(hit & ~seen)
                seen[fresh] = True
                reached = t.mult[np.ix_(fresh, letters)].ravel()
        generators = np.array(gens, dtype=np.intp)
        levels = _word_plan(t, np.concatenate([generators, t.inv[generators]]))
        for array in (generators, *(a for level in levels for a in level)):
            array.flags.writeable = False
        cache.setdefault("words", tuple(levels))
        found = cache.setdefault("generators", (generators, len(levels)))
    return found


def _generator_words(t: GroupTable) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """_word_plan of t on the letters (generators, their inverses) of
    _generating_set, kept from its search."""
    _generating_set(t)
    return t._cache["words"]


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
    a = np.arange(m, dtype=np.intp)
    rot = (a[:, None] + a[None, :]) % m  # r^a r^b = r^(a+b), r^a (r^b s) = r^(a+b) s
    ref = (a[:, None] - a[None, :]) % m  # (r^a s) r^b = r^(a-b) s, (r^a s)(r^b s) = r^(a-b)
    mult = np.block([[rot, m + rot], [m + ref, ref]])
    inv = np.concatenate([-a % m, m + a])  # r^a -> r^-a; reflections are involutions
    labels = tuple(f"r{k}" for k in range(m)) + tuple(f"r{k}s" for k in range(m))
    return GroupTable(order=2 * m, mult=mult, inv=inv, identity=0, labels=labels, name=f"dihedral:{m}")


def build_quaternion() -> GroupTable:
    """Quaternion group Q8 built from its 2x2 complex matrix realization.

    Each unit comes right before its negative.  The inverse of +-1 is
    itself, and every other unit squares to -1, so its inverse is its
    negative.
    """
    labels = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    units = np.array([[[1, 0], [0, 1]], [[1j, 0], [0, -1j]], [[0, 1], [-1, 0]], [[0, 1j], [1j, 0]]])
    mats = np.stack([units, -units], axis=1).reshape(8, 2, 2)
    # the entries are 0, +-1 and +-i, so every product is exact
    products = mats[:, None, None] @ mats[None, :, None]  # [a, b, 0] = mats[a] mats[b]
    mult = np.argmax((products == mats).all(axis=(3, 4)), axis=2)
    idx = np.arange(8, dtype=np.intp)
    return GroupTable(order=8, mult=mult, inv=idx ^ (idx >= 2), identity=0, labels=labels, name="quaternion:8")


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


def validate_group(t: GroupTable) -> ValidationReport:
    """Check the group axioms on the table, a corrupted one included.  Each
    failure is report content, never an exception, with its first witness:
    the first failing index, or for associativity the first (x, g, y) in (x, y)
    order at the first failing g of e, the generators of _generating_set and
    their inverses."""
    return ValidationReport(tuple(_violations(t)))


def _violations(t: GroupTable) -> Iterator[Violation]:
    """The violations of validate_group in its order, found one at a time,
    so that a caller that needs only the first stops before the later checks."""
    m = np.asarray(t.mult)
    order = t.order

    if m.shape != (order, order):
        yield Violation("shape", (m.shape[0] if m.ndim else -1,))
        return
    if t.inv.shape != (order,):
        yield Violation("shape", (int(t.inv.shape[0]),))
        return
    if not (0 <= t.identity < order):
        yield Violation("identity_range", (t.identity,))
        return
    if m.min() < 0 or m.max() >= order or t.inv.min() < 0 or t.inv.max() >= order:
        yield Violation("index_range", (int(m.min()), int(m.max())))
        return

    e = t.identity
    for kind, bad in (("left_identity", m[e, :] != np.arange(order)),
                      ("right_identity", m[:, e] != np.arange(order)),
                      ("right_inverse", m[np.arange(order), t.inv] != e),
                      ("left_inverse", m[t.inv, np.arange(order)] != e)):
        if bad.any():
            yield Violation(kind, (int(np.flatnonzero(bad)[0]),))

    # Light's test: the g with (x*g)*y == x*(g*y) for all x, y are closed
    # under products, and _generating_set leaves every element a letter or a
    # product ((e*l1)*l2)*... of e and letters, so e and the letters suffice
    gens, _ = _generating_set(t)
    for g in dict.fromkeys([e, *gens.tolist(), *t.inv[gens].tolist()]):
        bad = m[m[:, g]] != m[:, m[g]]  # m[m[x, g], y] vs m[x, m[g, y]]
        if bad.any():
            x, y = np.argwhere(bad)[0]
            yield Violation("associativity", (int(x), g, int(y)))
            break

    # entries are in range, so a row or column is a permutation iff it sorts to 0..order-1
    for kind, lines in (("latin_row", m), ("latin_col", m.T)):
        bad = np.flatnonzero((np.sort(lines, axis=1) != np.arange(order)).any(axis=1))
        if bad.size:
            yield Violation(kind, (int(bad[0]),))


def group_to_json(t: GroupTable) -> dict:
    return {
        "order": t.order,
        "mult": t.mult.tolist(),
        "inv": t.inv.tolist(),
        "identity": t.identity,
        "labels": list(t.labels),
    }


def _json_numbers(value: object, field: str, types: tuple[type, ...] = (int,)) -> np.ndarray:
    """Nested lists of JSON numbers of the given types, by default integers,
    as an intp array, or float64 when float is among them.  numpy would
    truncate a float, parse a string and take a bool as 0 or 1, and keeps
    the lists of a ragged list, so each is refused."""
    array = np.array(value, dtype=object)
    wrong = set(map(type, array.flat)) - set(types)  # a bool is an int to isinstance
    if wrong:
        kind = "numbers" if float in types else "integers"
        raise ValueError(f"{field} must hold JSON {kind}, not {', '.join(sorted(t.__name__ for t in wrong))}")
    return array.astype(np.float64 if float in types else np.intp)


def group_from_json(obj: dict, name: str = "custom") -> GroupTable:
    """The table of a group_to_json object.  order, identity and every mult
    and inv entry must be JSON integers, and labels, when present, exactly
    order strings; anything else raises ValueError("malformed group JSON: ...")."""
    try:
        order, identity = obj["order"], obj["identity"]
        if type(order) is not int or type(identity) is not int:
            raise ValueError(f"order and identity must be JSON integers, got {order!r} and {identity!r}")
        labels = obj.get("labels", [str(i) for i in range(order)])
        if not (isinstance(labels, list) and len(labels) == order and all(isinstance(s, str) for s in labels)):
            raise ValueError(f"labels must be a list of {order} strings")
        mult, inv = _json_numbers(obj["mult"], "mult"), _json_numbers(obj["inv"], "inv")
        return GroupTable(order=order, mult=mult, inv=inv, identity=identity, labels=tuple(labels), name=name)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed group JSON: {exc}") from exc


class _Kind(NamedTuple):
    """One kind of factor of a group spec: the short names a parameter may
    follow besides the kind's own (z6 and c6 as cyclic6 and cyclic:6), whole
    factors that name a parameter (klein), the one parameter of a kind with
    a single group, which a spec may leave out (q8 or q), the builder, and
    the order.  order(m) builds nothing, and on a parameter the builder
    refuses it calls the builder, which raises before it allocates."""

    letters: tuple[str, ...]
    words: dict[str, int]
    fixed: int | None
    build: Callable[[int], GroupTable]
    order: Callable[[int], int]


_KINDS = {
    "cyclic": _Kind(("z", "c"), {"trivial": 1}, None, build_cyclic, lambda m: m if m >= 1 else build_cyclic(m)),
    "dihedral": _Kind(("d",), {"klein": 2, "v4": 2}, None, build_dihedral,
                      lambda m: 2 * m if m >= 2 else build_dihedral(m)),
    "symmetric": _Kind(("s",), {}, None, build_symmetric,
                       lambda m: math.factorial(m) if 1 <= m <= 5 else build_symmetric(m)),
    "quaternion": _Kind(("q",), {}, 8, lambda m: build_quaternion(), lambda m: 8),
}
# the kind each name of a kind means, and the (kind, parameter) each word means
_NAMES = {name: kind for kind, row in _KINDS.items() for name in (kind, *row.letters)}
_WORDS = {word: (kind, m) for kind, row in _KINDS.items() for word, m in row.words.items()}


def _factors(spec: str) -> list[tuple[str, int]]:
    """(kind, parameter) of each factor of a spec such as 'z6', 'D4', 'cyclic:6' or 'z2xz3'."""
    s = spec.strip().lower().replace(" ", "")
    if not s:
        raise ValueError("empty group spec")
    factors = []
    for part in s.split("x"):
        if part in _WORDS:
            factors.append(_WORDS[part])
            continue
        name, colon, arg = part.partition(":")
        if not colon:
            name = part.rstrip("0123456789")
            arg = part[len(name):]
        kind = _NAMES.get(name)
        fixed = None if kind is None else _KINDS[kind].fixed
        if fixed is not None:
            arg = arg or str(fixed)
        if kind is None or not (arg.isascii() and arg.isdigit()) or fixed is not None and arg != str(fixed):
            raise ValueError(f"unrecognized group spec {spec!r}")
        factors.append((kind, int(arg)))
    return factors


def canonical_spec(spec: str) -> str:
    """Normalize a group spec string like 'z6', 'D4', 'cyclic:6', 'z2xz3'."""
    return "x".join(f"{kind}:{m}" for kind, m in _factors(spec))


def _spec_order(spec: str) -> int:
    """|G| of a spec, from the string alone; a refused factor raises as its builder does."""
    return math.prod(_KINDS[kind].order(m) for kind, m in _factors(spec))


# One table per canonical spec for the life of the process, so that the
# per-table cache (gather indices, generating set, Fourier basis) is built
# once per process.  Tables are immutable; threads that race on a first
# build make equal tables and setdefault keeps one of them.
_SPEC_TABLES: dict[str, GroupTable] = {}


# Largest array, in bytes, whose size comes from input: a spec's Cayley table,
# a representation in reps, a draw or a zero function in matfun.  z16384's
# table (2 GiB) and s4's regular x regular (127 MB) fit, z16385's table,
# z1000's regular representation (14.9 GiB) and s5's regular x regular
# (371 GiB) do not.
_MAX_ARRAY_BYTES = 2 * 2**30


def _check_array_size(nbytes: int, what: str, array: str) -> None:
    """Raise ValueError when what needs an array of nbytes over _MAX_ARRAY_BYTES:
    the one size rule, which callers apply before they allocate."""
    if nbytes > _MAX_ARRAY_BYTES:
        raise ValueError(f"{what} needs a {nbytes / 2**30:.1f} GiB {array}, "
                         f"over the {_MAX_ARRAY_BYTES / 2**30:.0f} GiB limit")


def parse_group_spec(spec: str) -> GroupTable:
    """The standard group of a spec string (see canonical_spec), built on
    first use and then shared: equal specs give the same table object.  A
    spec whose Cayley table would pass _MAX_ARRAY_BYTES raises ValueError
    before anything of its size is allocated."""
    canon = canonical_spec(spec)
    table = _SPEC_TABLES.get(canon)
    if table is None:
        order = _spec_order(canon)
        _check_array_size(order * order * np.dtype(np.intp).itemsize, f"group {canon} of order {order}", "Cayley table")
        tables = [_KINDS[kind].build(m) for kind, m in _factors(canon)]
        table = _SPEC_TABLES.setdefault(canon, functools.reduce(direct_product, tables))
    return table


def _standard_spec(table: GroupTable, spec: str | None = None) -> str | None:
    """The canonical form of spec (by default table.name) when table is its
    standard table, else None.  Orders are compared first, so a large spec
    never builds a large table."""
    try:
        canon = canonical_spec(table.name if spec is None else spec)
        return canon if _spec_order(canon) == table.order and parse_group_spec(canon).same_table(table) else None
    except ValueError:  # not a spec, or one a builder refuses, such as dihedral:1
        return None
