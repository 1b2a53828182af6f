"""Mixed rings: finite part + torsion-free algebra part + divisible torsion part.

Models a ring whose additive group is F (+) V (+) (Q/Z)^k where F is a
finite ring, V a torsion-free algebra, and the last summand divisible
torsion.  The only products not forced to vanish are those inside F, those
inside V, and a biadditive table F x F -> (Q/Z)^k feeding the divisible
part; the torsion parts annihilate the connected component on both sides.
Torsion coordinates are exact rationals in [0, 1), reduced mod 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .algebra import AlgebraPresentation, find_unity
from .errors import ValidationError
from .finite import FiniteRing, triple_slices
from .linalg import ZERO, is_zero_vec, rat, vec


def _mod1(q: Fraction) -> Fraction:
    return q - (q.numerator // q.denominator)


class MixedElement:
    """(finite index, algebra coordinates, torsion coordinates mod 1)."""

    __slots__ = ("ring", "finite", "algebra", "torsion")

    def __init__(self, ring: "MixedRing", finite: int, algebra: Sequence, torsion: Sequence):
        self.ring = ring
        self.finite = int(finite)
        self.algebra = vec(algebra)
        self.torsion = tuple(_mod1(rat(t)) for t in torsion)
        if not (0 <= self.finite < ring.finite_part.order):
            raise ValidationError("finite component out of range")
        if len(self.algebra) != ring.algebra_part.dim:
            raise ValidationError("algebra component has wrong length")
        if len(self.torsion) != ring.torsion_rank:
            raise ValidationError("torsion component has wrong length")

    def is_zero(self) -> bool:
        return (
            self.finite == self.ring.finite_part.zero
            and is_zero_vec(self.algebra)
            and all(t == 0 for t in self.torsion)
        )

    def __add__(self, other: "MixedElement") -> "MixedElement":
        r = self.ring
        return MixedElement(
            r,
            int(r.finite_part.add[self.finite, other.finite]),
            [a + b for a, b in zip(self.algebra, other.algebra)],
            [a + b for a, b in zip(self.torsion, other.torsion)],
        )

    def nsmul(self, n: int) -> "MixedElement":
        r = self.ring
        return MixedElement(
            r,
            r.finite_part.nsmul(n, self.finite),
            [n * a for a in self.algebra],
            [n * t for t in self.torsion],
        )

    def as_tuple(self):
        return (self.finite, self.algebra, self.torsion)

    def __eq__(self, other):
        return (
            isinstance(other, MixedElement)
            and self.ring is other.ring
            and self.as_tuple() == other.as_tuple()
        )

    def __hash__(self):
        return hash((id(self.ring),) + (self.finite, self.algebra, self.torsion))

    def __repr__(self):
        return f"MixedElement(f={self.finite}, v={self.algebra}, t={self.torsion})"


class MixedRing:
    """Finite (+) torsion-free (+) divisible-torsion ring with a cross table."""

    def __init__(
        self,
        name: str,
        finite_part: FiniteRing,
        algebra_part: AlgebraPresentation,
        torsion_rank: int,
        cross: Optional[Dict[Tuple[int, int], Sequence]] = None,
    ):
        self.name = name
        self.finite_part = finite_part
        self.algebra_part = algebra_part
        self.torsion_rank = int(torsion_rank)
        if self.torsion_rank < 0:
            raise ValidationError("torsion rank must be nonnegative")
        table: Dict[Tuple[int, int], tuple] = {}
        order = finite_part.order
        for (i, j), value in (cross or {}).items():
            if not (0 <= i < order and 0 <= j < order):
                raise ValidationError(
                    f"cross table key ({i},{j}) is outside the finite part 0..{order - 1}"
                )
            row = tuple(_mod1(rat(x)) for x in value)
            if len(row) != self.torsion_rank:
                raise ValidationError("cross table row has wrong torsion rank")
            if any(x != 0 for x in row):
                table[(i, j)] = row
        self.cross = table
        self._validate()

    def _cross(self, i: int, j: int) -> tuple:
        return self.cross.get((i, j), (ZERO,) * self.torsion_rank)

    def _validate(self):
        """Biadditivity and associativity of the cross table.

        Biadditivity in each slot makes the product distribute; associativity
        of triple products reduces to cross(fg, h) = cross(f, gh) because the
        torsion part annihilates everything.  The laws run on the table scaled
        by the lcm D of its denominators, mod D, over slices of the first
        index; the message names the first law to fail at the first failing
        (i, j, k) in lexicographic order.
        """
        F = self.finite_part
        n, add, mul = F.order, F.add, F.mul
        D = math.lcm(*(x.denominator for row in self.cross.values() for x in row))
        dtype = np.int64 if D < 1 << 62 else object
        C = np.zeros((n, n, self.torsion_rank), dtype=dtype)
        for (i, j), row in self.cross.items():
            C[i, j] = [x.numerator * (D // x.denominator) for x in row]
        laws = (
            # cross(i+j, k) == cross(i, k) + cross(j, k)
            (lambda s: C[add[s]], lambda s: (C[s][:, None] + C[None]) % D,
             "cross table is not additive on the left"),
            # cross(i, j+k) == cross(i, j) + cross(i, k)
            (lambda s: C[s][:, add], lambda s: (C[s][:, :, None] + C[s][:, None]) % D,
             "cross table is not additive on the right"),
            # cross(i*j, k) == cross(i, j*k)
            (lambda s: C[mul[s]], lambda s: C[s][:, mul],
             "cross table breaks associativity"),
        )
        for s in triple_slices(n):
            fails = [(lhs(s) != rhs(s)).any(axis=-1) for lhs, rhs, _ in laws]
            bad = np.logical_or.reduce(fails)
            if bad.any():
                first = np.unravel_index(np.argmax(bad), bad.shape)
                raise ValidationError(next(m for f, (_, _, m) in zip(fails, laws) if f[first]))

    def zero(self) -> MixedElement:
        return MixedElement(
            self, self.finite_part.zero, [0] * self.algebra_part.dim, [0] * self.torsion_rank
        )

    def element(self, finite: int, algebra: Sequence = (), torsion: Sequence = ()) -> MixedElement:
        algebra = list(algebra) or [0] * self.algebra_part.dim
        torsion = list(torsion) or [0] * self.torsion_rank
        return MixedElement(self, finite, algebra, torsion)

    def __repr__(self):
        return (
            f"MixedRing({self.name!r}, |F|={self.finite_part.order}, "
            f"dim V={self.algebra_part.dim}, rank={self.torsion_rank})"
        )


def mixed_multiply(x: MixedElement, y: MixedElement) -> MixedElement:
    """Componentwise product plus the finite-to-torsion cross contribution.

    Finite parts multiply in F and additionally feed the divisible torsion
    via the cross table; algebra parts multiply in V; every other cross
    product is zero (torsion annihilates the connected component).
    """
    if x.ring is not y.ring:
        raise ValidationError("mixed elements from different rings")
    r = x.ring
    f = int(r.finite_part.mul[x.finite, y.finite])
    v = r.algebra_part.multiply_coords(x.algebra, y.algebra)
    t = r._cross(x.finite, y.finite)
    return MixedElement(r, f, v, t)


def _probes(ring: MixedRing) -> List[MixedElement]:
    """Every element of the finite part, then every basis vector of the
    algebra part: with the torsion, which annihilates everything, they
    generate the ring additively."""
    F, dim = ring.finite_part, ring.algebra_part.dim
    basis = [ring.element(F.zero, [int(i == k) for k in range(dim)]) for i in range(dim)]
    return [ring.element(f) for f in F.elements()] + basis


def torsion_ideal(ring: MixedRing, n: int) -> List[MixedElement]:
    """All elements killed by n: finite n-torsion + (1/n)-grid torsion coordinates.

    Verified to be an ideal and to annihilate the algebra part.
    """
    if n < 1:
        raise ValidationError("torsion_ideal requires n >= 1")
    F = ring.finite_part
    finite_members = [x for x in F.elements() if F.nsmul(n, x) == F.zero]
    from itertools import product as iproduct

    grid = [Fraction(k, n) for k in range(n)]
    members = []
    for f in finite_members:
        for t in iproduct(grid, repeat=ring.torsion_rank):
            members.append(ring.element(f, [0] * ring.algebra_part.dim, list(t)))
    member_set = {m.as_tuple() for m in members}
    # ideal check: products against finite and algebra generators stay inside
    probes = _probes(ring)
    for m in members:
        for p in probes:
            for prod in (mixed_multiply(m, p), mixed_multiply(p, m)):
                if prod.as_tuple() not in member_set:
                    raise ValidationError("n-torsion subset failed the ideal check")
    for m in members:
        for p in probes[F.order:]:
            if not mixed_multiply(m, p).is_zero() or not mixed_multiply(p, m).is_zero():
                raise ValidationError("n-torsion fails to annihilate the connected part")
    return members


class FiniteConnectedSplit:
    """Outcome of the unital finite-times-connected decomposition."""

    __slots__ = ("finite_ideal", "connected_algebra", "unity")

    def __init__(self, finite_ideal: FiniteRing, connected_algebra: AlgebraPresentation, unity):
        self.finite_ideal = finite_ideal
        self.connected_algebra = connected_algebra
        self.unity = unity


def finite_connected_split(ring: MixedRing) -> Optional[FiniteConnectedSplit]:
    """Split a unital mixed ring as (finite ideal) x (torsion-free connected part).

    A unity forces the divisible torsion part to vanish (it annihilates
    everything, so nothing acts as identity on it) and the finite and
    algebra parts to be unital; the decomposition is then componentwise,
    with the finite part equal to the |F|-torsion ideal.  Returns None for
    non-unital rings, where no complement of the connected part need be a
    subring.
    """
    F = ring.finite_part
    f_unity = F.unity()
    v_unity = find_unity(ring.algebra_part) if ring.algebra_part.dim > 0 else None
    v_ok = ring.algebra_part.dim == 0 or v_unity is not None
    if f_unity is None or not v_ok or ring.torsion_rank > 0:
        return None
    if any(any(x != 0 for x in row) for row in ring.cross.values()):
        return None
    unity = ring.element(
        f_unity,
        list(v_unity.coords) if v_unity is not None else [],
        [],
    )
    # verify the unity and componentwise multiplication on generators
    for p in _probes(ring):
        if mixed_multiply(unity, p) != p or mixed_multiply(p, unity) != p:
            return None
    n_torsion = torsion_ideal(ring, F.order)
    if len(n_torsion) != F.order:
        raise ValidationError("unital mixed ring has torsion outside its finite part")
    return FiniteConnectedSplit(F, ring.algebra_part, unity)
