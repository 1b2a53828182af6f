"""Finite rings as explicit addition and multiplication tables.

Tables are validated at load (abelian group axioms, associativity,
distributivity) on a greedy additive generating set X of at most log2(order)
elements: each law is checked with one argument in X, which takes
O(order^2 log order) work instead of order^3 (see ``FiniteRing._validate``).
A table that fails there is checked again over all (i, j, k) triples, so that
the message names the first law to fail.  Both checks run as numpy index
arithmetic over slices of the first index, so a check holds O(order^2) memory
per slice, never a full order^3 array.  The structure
record (unity, idempotents, units, zero divisors, nil and reduced flags, the
nilpotency index) comes from numpy boolean reductions over the tables.  The
radical (``jacobson_definitional``) is the quasi-regularity formula decided
for every element, in O(order^2) lookups.  The ideal lattice (``all_ideals``,
``largest_nilpotent_ideal``) is enumerated exhaustively: each principal ideal
is a fixpoint over a boolean mask (``subset_closure``), and ideals are joined
by their sums, which are ideals already.  Nilpotency of the ring and of an
ideal is one descent (``ring_nilpotency_index``).  Neither the radical nor the
lattice uses the exact-linear-algebra engine, so both serve as its independent
oracle.  Exhaustive routines are capped at order 256, the lattice at 64.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Sequence, Set

import numpy as np

from .errors import InternalInvariantError, InvalidParams, ValidationError

ORDER_CAP = 256
IDEAL_ENUM_CAP = 64
SLICE_TRIPLES = 1 << 16  # (i, j, k) triples per slice of a table-law check


def triple_slices(n: int):
    """Slices of the first index that cover ``range(n)`` with at most about
    ``SLICE_TRIPLES`` triples each (one row at least)."""
    step = max(1, SLICE_TRIPLES // (n * n))
    return [slice(start, start + step) for start in range(0, n, step)]


def additive_generators(add: np.ndarray, zero: int) -> Optional[List[int]]:
    """A greedy generating set X of (R, +), or None once |X| exceeds log2(order).

    W starts as {zero}; the least element outside W joins X, and W is closed
    under z -> z + a for every a in X.  If (R, +) is a group, W is the
    subgroup that X generates, so each new element at least doubles |W| and
    |X| <= log2(order); a longer X shows that + is not associative.
    """
    n = len(add)
    gens: List[int] = []
    reached = np.zeros(n, dtype=bool)
    reached[zero] = True
    while not reached.all():
        if len(gens) == n.bit_length() - 1:
            return None
        gens.append(int(np.argmin(reached)))
        frontier = np.flatnonzero(reached)
        while frontier.size:
            sums = np.unique(add[frontier][:, gens])
            frontier = sums[~reached[sums]]
            reached[frontier] = True
    return gens


class FiniteRing:
    """A finite ring given by order-by-order addition and multiplication tables."""

    __slots__ = ("name", "order", "zero", "add", "mul", "_neg")

    def __init__(self, name: str, add_table: Sequence[Sequence[int]], mul_table, zero: int = 0):
        self.name = name
        add = np.asarray(add_table, dtype=np.int64)
        mul = np.asarray(mul_table, dtype=np.int64)
        n = add.shape[0]
        if n > ORDER_CAP:
            raise InvalidParams(f"finite ring order {n} exceeds cap {ORDER_CAP}")
        if add.shape != (n, n) or mul.shape != (n, n):
            raise ValidationError("tables must be square and of equal order")
        if not (0 <= zero < n):
            raise ValidationError("zero index out of range")
        if add.min() < 0 or add.max() >= n or mul.min() < 0 or mul.max() >= n:
            raise ValidationError("table entries out of range")
        self.order = int(n)
        self.zero = int(zero)
        self.add = add
        self.mul = mul
        self._validate()
        self._neg = self._negation_table()

    def _validate(self):
        """The ring laws, checked with one argument in a generating set X of
        (R, +), after the O(order^2) group laws.

        - (i+a)+k == i+(a+k) for a in X: the middle elements that associate
          are closed under + (Light's test, Clifford-Preston I, section 1.2),
          contain zero and X, so they are all of R, and (R, +) is a group.
        - i(j+a) == ij + ia and (j+a)k == jk + ak for a in X: with j = 0 these
          give i0 = 0 = 0k, and the a for which they hold are closed under +
          once + is associative, so both distributive laws hold.
        - (xy)z == x(yz) on X^3: the associator is then additive in each
          argument, so it vanishes everywhere.

        When a check fails, or X is too long for (R, +) to be a group, the
        laws run again over all triples in ``_check_laws`` and the first to
        fail is named.
        """
        n, add, zero = self.order, self.add, self.zero
        idx = np.arange(n)
        # additive identity and commutativity
        if not np.array_equal(add[zero], idx) or not np.array_equal(add[:, zero], idx):
            raise ValidationError("zero is not an additive identity")
        if not np.array_equal(add, add.T):
            raise ValidationError("addition is not commutative")
        # additive inverses: each row of add must contain zero
        if not np.all((add == zero).any(axis=1)):
            raise ValidationError("some element has no additive inverse")
        gens = additive_generators(add, zero)
        if gens is None or not self._laws_hold_with(gens):
            self._check_laws()
            raise InternalInvariantError("a table law fails on the generators but not on all triples")

    def _check_laws(self):
        """The four laws over all (i, j, k); raises the first that fails."""
        n, add, mul = self.order, self.add, self.mul
        # The laws over all (i, j, k), one law at a time, each over slices of
        # i; every array below is indexed [i, j, k] with i in the slice.
        # np.take(x[s], t, axis=1) is x[s][:, t], about twice as fast.
        laws = (
            # (i+j)+k == i+(j+k)
            (lambda s: add[add[s]], lambda s: np.take(add[s], add, axis=1),
             "addition is not associative"),
            # (i*j)*k == i*(j*k)
            (lambda s: mul[mul[s]], lambda s: np.take(mul[s], mul, axis=1),
             "multiplication is not associative"),
            # i*(j+k) == i*j + i*k
            (lambda s: np.take(mul[s], add, axis=1),
             lambda s: add[mul[s][:, :, None], mul[s][:, None, :]],
             "left distributivity fails"),
            # (i+j)*k == i*k + j*k
            (lambda s: mul[add[s]], lambda s: add[mul[s][:, None, :], mul[None, :, :]],
             "right distributivity fails"),
        )
        for lhs, rhs, message in laws:
            for s in triple_slices(n):
                if not np.array_equal(lhs(s), rhs(s)):
                    raise ValidationError(message)

    def _laws_hold_with(self, gens: List[int]) -> bool:
        """The laws with one argument in ``gens``; every check must pass, so
        their order does not change the verdict."""
        add, mul = self.add, self.mul
        x = np.asarray(gens, dtype=np.int64)
        add_x, add_col_x, mul_x = add[x], add[:, x], mul[x]
        for s in triple_slices(self.order):
            add_s, mul_s = add[s], mul[s]
            if not (
                # (i+a)+k == i+(a+k), indexed [i, a, k]
                np.array_equal(add[add_s[:, x]], np.take(add_s, add_x, axis=1))
                # i*(j+a) == i*j + i*a, indexed [i, j, a]
                and np.array_equal(np.take(mul_s, add_col_x, axis=1),
                                   add[mul_s[:, :, None], mul_s[:, None, x]])
                # (j+a)*k == j*k + a*k, indexed [j, a, k]
                and np.array_equal(mul[add_s[:, x]], add[mul_s[:, None, :], mul_x[None, :, :]])
            ):
                return False
        # (a*b)*c == a*(b*c) on gens^3, indexed [a, b, c]
        ab = mul[np.ix_(x, x)]
        return np.array_equal(mul[ab][:, :, x], mul_x[:, ab])

    def _negation_table(self):
        neg = np.argmax(self.add == self.zero, axis=1)
        return neg

    def neg(self, x: int) -> int:
        return int(self._neg[x])

    def nsmul(self, n: int, x: int) -> int:
        """n-fold additive multiple of x."""
        acc = self.zero
        for _ in range(n):
            acc = int(self.add[acc, x])
        return acc

    def elements(self) -> range:
        return range(self.order)

    def unity(self) -> Optional[int]:
        idx = np.arange(self.order)
        two_sided = (self.mul == idx).all(axis=1) & (self.mul.T == idx).all(axis=1)
        hits = np.flatnonzero(two_sided)
        return int(hits[0]) if hits.size else None

    def __repr__(self):
        return f"FiniteRing({self.name!r}, order={self.order})"


# -- the definitional radical oracle ------------------------------------------


def jacobson_definitional(ring: FiniteRing) -> FrozenSet[int]:
    """The quasi-regularity formula, by exhaustion.

    J = { a : for every r there is b with b r a - r a - b = 0 }.  Whether some
    b has b x - x - b = 0 depends on x = r a alone, so it is decided once per
    element x, and a is in J when it holds at every product r a: O(order^2)
    table lookups.  The result is verified to be a two-sided ideal.
    """
    mul, add, neg = ring.mul, ring.add, ring._neg
    # [b, x] -> b x - x - b
    expr = add[add[mul, neg[None, :]], neg[:, None]]
    quasi_regular = (expr == ring.zero).any(axis=0)
    result = frozenset(np.flatnonzero(quasi_regular[mul].all(axis=0)).tolist())
    if not is_ideal(ring, result):
        raise ValidationError("definitional radical is not an ideal; tables are inconsistent")
    return result


def is_ideal(ring: FiniteRing, subset: FrozenSet[int]) -> bool:
    """Whether ``subset`` contains zero and is closed under + and under
    products with every element on either side."""
    if not all(0 <= x < ring.order for x in subset):
        return False
    inside = np.zeros(ring.order, dtype=bool)
    inside[list(subset)] = True
    members = np.flatnonzero(inside)
    return bool(
        inside[ring.zero]
        and inside[ring.add[np.ix_(members, members)]].all()
        and inside[ring.mul[members]].all()
        and inside[ring.mul[:, members]].all()
    )


def subset_closure(ring: FiniteRing, seed: Set[int]) -> FrozenSet[int]:
    """Smallest ideal containing the seed.

    Each round adds the products of the members with every element on either
    side and the sums of two members, until a round adds nothing.  A finite
    set that contains zero and is closed under + is a subgroup, so negatives
    come for free.
    """
    inside = np.zeros(ring.order, dtype=bool)
    inside[[ring.zero, *seed]] = True
    while True:
        members = np.flatnonzero(inside)
        inside[ring.mul[members]] = True
        inside[ring.mul[:, members]] = True
        inside[ring.add[np.ix_(members, members)]] = True
        if np.count_nonzero(inside) == members.size:
            return frozenset(members.tolist())


def _ideal_sum(ring: FiniteRing, a: FrozenSet[int], b: FrozenSet[int]) -> FrozenSet[int]:
    """I + J for ideals I and J: the sums x + y, an ideal again."""
    return frozenset(np.unique(ring.add[np.ix_(list(a), list(b))]).tolist())


def all_ideals(ring: FiniteRing) -> List[FrozenSet[int]]:
    """Every ideal, as a sum of principal ideals.

    Each round adds one principal ideal to each ideal found in the round
    before; an ideal is the sum of the principal ideals of its elements, so
    the rounds reach all of them.
    """
    if ring.order > IDEAL_ENUM_CAP:
        raise InvalidParams(f"ideal enumeration capped at order {IDEAL_ENUM_CAP}")
    principals = {subset_closure(ring, {x}) for x in ring.elements()}
    ideals = set(principals)
    frontier = principals
    while frontier:
        frontier = {_ideal_sum(ring, a, b) for a in frontier for b in principals} - ideals
        ideals |= frontier
    return sorted(ideals, key=lambda s: (len(s), sorted(s)))


def largest_nilpotent_ideal(ring: FiniteRing) -> FrozenSet[int]:
    """Sum of all nilpotent ideals, by exhaustive ideal enumeration."""
    total = frozenset({ring.zero})
    for ideal in all_ideals(ring):
        if ring_nilpotency_index(ring, ideal) is not None:
            total = _ideal_sum(ring, total, ideal)
    if ring_nilpotency_index(ring, total) is None:
        raise ValidationError("sum of nilpotent ideals failed nilpotency")
    return total


# -- exhaustive structure record ----------------------------------------------


class FiniteStructure:
    """Everything about a finite ring, by enumeration."""

    __slots__ = (
        "nilpotent",
        "nil",
        "nilpotency_index",
        "idempotents",
        "units",
        "zero_divisors",
        "jacobson",
        "is_reduced",
        "unity",
    )

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])


def ring_nilpotency_index(ring: FiniteRing, subset: Optional[Iterable[int]] = None) -> Optional[int]:
    """Least k with all k-fold products of elements of ``subset`` (by default
    the whole ring) zero, or None.

    The sets S_1 = S, S_(k+1) = S S_k + {0} only shrink when S is an ideal,
    and once a step leaves S_k unchanged it never reaches {0}.
    """
    zero = ring.zero
    factors = np.arange(ring.order) if subset is None else np.array(sorted(subset), dtype=np.int64)
    current = factors
    for k in range(1, ring.order + 2):
        if current.size == 1 and current[0] == zero:
            return k
        nxt = np.union1d(ring.mul[np.ix_(factors, current)], [zero])
        if np.array_equal(nxt, current):
            return None
        current = nxt
    return None


def finite_structure(ring: FiniteRing) -> FiniteStructure:
    n, mul, zero = ring.order, ring.mul, ring.zero
    idx = np.arange(n)
    unity = ring.unity()
    square = mul.diagonal()
    idempotents = np.flatnonzero(square == idx).tolist()
    units = []
    if unity is not None:
        units = np.flatnonzero(((mul == unity) & (mul.T == unity)).any(axis=1)).tolist()
    # [x, y]: x y = 0 or y x = 0, over y != 0 and x != 0
    kills = (mul == zero) | (mul.T == zero)
    kills[:, zero] = False
    kills[zero] = False
    zero_divisors = np.flatnonzero(kills.any(axis=1)).tolist()
    # x^(2^t) with 2^t > n, past the index of any nilpotent element
    power = idx
    for _ in range(n.bit_length()):
        power = mul[power, power]
    nil = bool((power == zero).all())
    index = ring_nilpotency_index(ring)
    reduced = bool((square[idx != zero] != zero).all())
    return FiniteStructure(
        nilpotent=index is not None,
        nil=nil,
        nilpotency_index=index,
        idempotents=idempotents,
        units=units,
        zero_divisors=zero_divisors,
        jacobson=jacobson_definitional(ring),
        is_reduced=reduced,
        unity=unity,
    )


# -- constructors -----------------------------------------------------------


def zmod(n: int) -> FiniteRing:
    if n < 1:
        raise InvalidParams("zmod requires n >= 1")
    idx = np.arange(n)
    add = (idx[:, None] + idx[None, :]) % n
    mul = (idx[:, None] * idx[None, :]) % n
    return FiniteRing(f"Z{n}", add, mul, zero=0)


def _tuple_ring(name, elems, add_fn, mul_fn, zero_elem) -> FiniteRing:
    index = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    add = [[index[add_fn(a, b)] for b in elems] for a in elems]
    mul = [[index[mul_fn(a, b)] for b in elems] for a in elems]
    return FiniteRing(name, add, mul, zero=index[zero_elem])


def matrix_ring_zp(n: int, p: int) -> FiniteRing:
    """M_n(Z/p) as tables; order p^(n^2)."""
    if p < 2 or n < 1:
        raise InvalidParams("matrix_ring_zp requires n >= 1, p >= 2")
    if p ** (n * n) > ORDER_CAP:
        raise InvalidParams("matrix ring too large for table form")
    from itertools import product

    elems = [tuple(m) for m in product(range(p), repeat=n * n)]

    def add_fn(a, b):
        return tuple((x + y) % p for x, y in zip(a, b))

    def mul_fn(a, b):
        out = []
        for i in range(n):
            for j in range(n):
                out.append(sum(a[i * n + k] * b[k * n + j] for k in range(n)) % p)
        return tuple(out)

    zero = tuple([0] * (n * n))
    return _tuple_ring(f"M{n}(Z{p})", elems, add_fn, mul_fn, zero)


def strictly_upper_zp(n: int, p: int) -> FiniteRing:
    """Strictly upper triangular n x n matrices over Z/p; a nilpotent ring."""
    if p < 2 or n < 2:
        raise InvalidParams("strictly_upper_zp requires n >= 2, p >= 2")
    from itertools import product

    slots = [(i, j) for i in range(n) for j in range(n) if i < j]
    if p ** len(slots) > ORDER_CAP:
        raise InvalidParams("ring too large for table form")
    elems = [tuple(m) for m in product(range(p), repeat=len(slots))]
    pos = {s: k for k, s in enumerate(slots)}

    def add_fn(a, b):
        return tuple((x + y) % p for x, y in zip(a, b))

    def mul_fn(a, b):
        out = [0] * len(slots)
        for (i, j), k in pos.items():
            total = 0
            for m in range(i + 1, j):
                total += a[pos[(i, m)]] * b[pos[(m, j)]]
            out[k] = total % p
        return tuple(out)

    zero = tuple([0] * len(slots))
    return _tuple_ring(f"T{n}(Z{p})", elems, add_fn, mul_fn, zero)


def finite_product(a: FiniteRing, b: FiniteRing) -> FiniteRing:
    if a.order * b.order > ORDER_CAP:
        raise InvalidParams("product ring too large")
    elems = [(x, y) for x in a.elements() for y in b.elements()]

    def add_fn(u, v):
        return (int(a.add[u[0], v[0]]), int(b.add[u[1], v[1]]))

    def mul_fn(u, v):
        return (int(a.mul[u[0], v[0]]), int(b.mul[u[1], v[1]]))

    return _tuple_ring(f"{a.name}x{b.name}", elems, add_fn, mul_fn, (a.zero, b.zero))
