import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ringstruct import finite
from ringstruct.documents import to_object
from ringstruct.errors import InternalInvariantError, InvalidParams, ValidationError
from ringstruct.finite import (
    FiniteRing,
    additive_generators,
    all_ideals,
    finite_product,
    finite_structure,
    is_ideal,
    jacobson_definitional,
    largest_nilpotent_ideal,
    matrix_ring_zp,
    ring_nilpotency_index,
    strictly_upper_zp,
    subset_closure,
    zmod,
)
from ringstruct.generators import generate

from oracles import (
    reference_all_ideals,
    reference_is_ideal,
    reference_jacobson_definitional,
    reference_nilpotency_index,
    reference_structure,
    reference_subset_closure,
    reference_subset_is_nilpotent,
    reference_table_violation,
    relabel_tables,
)


def test_jacobson_z4():
    assert sorted(jacobson_definitional(zmod(4))) == [0, 2]


def test_jacobson_z6():
    assert sorted(jacobson_definitional(zmod(6))) == [0]


def test_jacobson_primes():
    for p in (2, 3, 5, 7, 11):
        assert jacobson_definitional(zmod(p)) == frozenset({0})


def test_structure_z4():
    st = finite_structure(zmod(4))
    assert not st.nilpotent
    assert st.idempotents == [0, 1]
    assert st.units == [1, 3]
    assert sorted(st.jacobson) == [0, 2]


def test_structure_z2_squared_reduced():
    st = finite_structure(finite_product(zmod(2), zmod(2)))
    assert st.is_reduced
    assert len(st.idempotents) == 4


def test_structure_null_order_two():
    st = finite_structure(strictly_upper_zp(2, 2))
    assert st.nilpotent and st.nil
    assert st.nilpotency_index == 2


def test_oracle_agreement_small_rings():
    rings = [
        zmod(4),
        zmod(6),
        zmod(8),
        zmod(9),
        zmod(12),
        finite_product(zmod(2), zmod(4)),
        matrix_ring_zp(2, 2),
        strictly_upper_zp(2, 2),
        strictly_upper_zp(3, 2),
        strictly_upper_zp(2, 3),
        strictly_upper_zp(3, 3),
    ]
    for ring in rings:
        j = jacobson_definitional(ring)
        assert j == largest_nilpotent_ideal(ring), ring.name
        # quotient check at finite scale: no nilpotent ideal survives modulo J
        for ideal in all_ideals(ring):
            if ideal <= j:
                continue


def test_finite_trichotomy(corpus_rings):
    for ring in corpus_rings:
        st = finite_structure(ring)
        unity = st.unity
        for x in ring.elements():
            if x == ring.zero:
                continue
            is_unit = x in st.units
            is_zd = x in st.zero_divisors
            assert is_unit != is_zd, (ring.name, x)


def test_nilpotency_equivalences_finite(corpus_rings):
    for ring in corpus_rings:
        st = finite_structure(ring)
        only_zero_idempotent = st.idempotents == [ring.zero]
        j_is_everything = len(st.jacobson) == ring.order
        assert st.nilpotent == st.nil == only_zero_idempotent == j_is_everything
        if st.nilpotent:
            assert st.nilpotency_index <= ring.order + 1


@pytest.fixture(scope="module")
def corpus_rings():
    return [
        zmod(2),
        zmod(4),
        zmod(6),
        zmod(9),
        zmod(12),
        finite_product(zmod(2), zmod(2)),
        finite_product(zmod(3), zmod(4)),
        matrix_ring_zp(2, 2),
        strictly_upper_zp(2, 2),
        strictly_upper_zp(3, 2),
        strictly_upper_zp(2, 3),
        strictly_upper_zp(3, 3),
    ]


def test_validation_rejects_broken_addition():
    with pytest.raises(ValidationError):
        FiniteRing("bad", [[0, 1], [1, 1]], [[0, 0], [0, 0]])


def test_validation_rejects_broken_distributivity():
    # addition mod 2 but multiplication that ignores addition structure
    with pytest.raises(ValidationError):
        FiniteRing("bad", [[0, 1], [1, 0]], [[0, 1], [0, 0]])


def test_order_cap():
    with pytest.raises(InvalidParams):
        matrix_ring_zp(2, 5)  # 5^4 = 625 > 256


def test_unity_detection():
    assert zmod(6).unity() == 1
    assert strictly_upper_zp(2, 2).unity() is None


# -- the vectorized layer against the loop references -------------------------


@st.composite
def relabelled_rings(draw):
    """Tables of a constructor ring with its elements renamed by a random
    permutation, so that zero is rarely 0."""
    kind = draw(st.sampled_from(["zmod", "matrix", "upper", "product"]))
    if kind == "zmod":
        ring = zmod(draw(st.integers(1, 40)))
    elif kind == "matrix":
        ring = matrix_ring_zp(2, 2)
    elif kind == "upper":
        ring = strictly_upper_zp(3, draw(st.sampled_from([2, 3])))
    else:
        parts = [zmod(1), zmod(2), zmod(3), zmod(4), zmod(6), strictly_upper_zp(2, 2)]
        ring = finite_product(draw(st.sampled_from(parts)), draw(st.sampled_from(parts)))
    perm = draw(st.permutations(range(ring.order)))
    return relabel_tables(ring.add, ring.mul, ring.zero, perm)


def _slice_rows(data, n):
    """A patch of the slice size to a few rows of (j, k) pairs per slice."""
    rows = data.draw(st.sampled_from([1, 2, 3, n]))
    return mock.patch.object(finite, "SLICE_TRIPLES", rows * n * n)


@settings(max_examples=60, deadline=None)
@given(relabelled_rings(), st.data())
def test_structure_matches_loop_reference(tables, data):
    add, mul, zero = tables
    assert reference_table_violation(add, mul, zero) is None
    with _slice_rows(data, len(add)):
        ring = FiniteRing("relabelled", add, mul, zero=zero)
    expected = reference_structure(ring)
    structure = finite_structure(ring)
    for field, value in expected.items():
        assert getattr(structure, field) == value, field
    assert ring.unity() == expected["unity"]
    assert ring_nilpotency_index(ring) == reference_nilpotency_index(ring)


@settings(max_examples=150, deadline=None)
@given(relabelled_rings(), st.data())
def test_corrupted_table_gets_the_reference_message(tables, data):
    add, mul, zero = tables[0].copy(), tables[1].copy(), tables[2]
    n = len(add)
    assume(n > 1)
    table = data.draw(st.sampled_from([add, mul]))
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    table[i, j] = data.draw(st.integers(0, n - 1).filter(lambda v: v != table[i, j]))
    expected = reference_table_violation(add, mul, zero)
    with _slice_rows(data, n):
        if expected is None:
            FiniteRing("corrupted", add, mul, zero=zero)
        else:
            with pytest.raises(ValidationError) as info:
                FiniteRing("corrupted", add, mul, zero=zero)
            assert str(info.value) == expected


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 40), st.sampled_from(["left", "right"]), st.data())
def test_projection_product_fails_one_distributive_law(n, side, data):
    # x * y = x is associative and right distributive but not left
    # distributive; x * y = y the other way round
    idx = np.arange(n)
    mul = np.broadcast_to(idx[:, None] if side == "left" else idx, (n, n))
    perm = data.draw(st.permutations(range(n)))
    add, mul, zero = relabel_tables(zmod(n).add, mul, 0, perm)
    expected = reference_table_violation(add, mul, zero)
    assert expected == f"{side} distributivity fails"
    with _slice_rows(data, n), pytest.raises(ValidationError) as info:
        FiniteRing("projection", add, mul, zero=zero)
    assert str(info.value) == expected


# -- the generator path against the reference ---------------------------------

# Commutative, with identity 0 and inverses, and + not associative: 1 and 2
# reach only {0, 1, 2, 3}, so a third generator exceeds floor(log2 6) = 2.
# (No commutative loop of order 5 or 6 has a greedy generating set that long:
# a table with identity 0 whose rows are permutations is reached from 0 by
# two generators, as enumerating all of them shows.)
LONG_GENERATORS_ADD = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 3, 2, 4, 4],
    [2, 3, 0, 1, 4, 4],
    [3, 2, 1, 0, 4, 4],
    [4, 4, 4, 4, 0, 1],
    [5, 4, 4, 4, 1, 0],
]
# A commutative loop of order 6 that is no group; generated by 1 and 2.
LOOP_ADD = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 3, 2, 5, 4],
    [2, 3, 4, 5, 0, 1],
    [3, 2, 5, 4, 1, 0],
    [4, 5, 0, 1, 3, 2],
    [5, 4, 1, 0, 2, 3],
]


@pytest.mark.parametrize("add, gens", [(LONG_GENERATORS_ADD, None), (LOOP_ADD, [1, 2])])
def test_non_associative_addition_is_named(add, gens):
    add, mul = np.array(add), np.zeros((6, 6), dtype=np.int64)
    assert additive_generators(add, 0) == gens
    assert reference_table_violation(add, mul, 0) == "addition is not associative"
    with pytest.raises(ValidationError, match="^addition is not associative$"):
        FiniteRing("loop", add, mul, zero=0)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 30), st.integers(0, 2**32 - 1), st.data())
def test_associativity_on_the_generators_alone_is_not_trusted(n, seed, data):
    # Z/n is generated by 1 and 1*1 = 1, so (ab)c == a(bc) holds on the
    # generators; random other products break it elsewhere
    add = zmod(n).add
    mul = np.random.default_rng(seed).integers(0, n, size=(n, n))
    mul[1, 1] = 1
    assert additive_generators(add, 0) == [1]
    expected = reference_table_violation(add, mul, 0)
    assume(expected == "multiplication is not associative")
    with _slice_rows(data, n), pytest.raises(ValidationError) as info:
        FiniteRing("random", add, mul, zero=0)
    assert str(info.value) == expected


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 4)]), st.integers(0, 2**32 - 1), st.data())
def test_bilinear_product_is_checked_on_generator_triples(shape, seed, data):
    # a random bilinear product on (Z/p)^d distributes by construction, so
    # only the generator triples of the last check can see it fail to associate
    p, d = shape
    const = np.random.default_rng(seed).integers(0, p, size=(d, d, d))
    const *= np.random.default_rng(seed + 1).random((d, d, 1)) < 0.5
    vecs = np.array(list(np.ndindex(*(p,) * d)))
    weights = p ** np.arange(d)[::-1]
    add = ((vecs[:, None] + vecs[None]) % p) @ weights
    mul = (np.einsum("xa,yb,abc->xyc", vecs, vecs, const) % p) @ weights
    perm = data.draw(st.permutations(range(p**d)))
    add, mul, zero = relabel_tables(add, mul, 0, perm)
    expected = reference_table_violation(add, mul, zero)
    assert expected in (None, "multiplication is not associative")
    with _slice_rows(data, p**d):
        if expected is None:
            FiniteRing("bilinear", add, mul, zero=zero)
        else:
            with pytest.raises(ValidationError) as info:
                FiniteRing("bilinear", add, mul, zero=zero)
            assert str(info.value) == expected


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 20), st.data())
def test_first_failing_law_is_named_when_two_fail(half, data):
    # x * y = 2x on Z/n, n odd: right distributive, but neither associative
    # nor left distributive; the generator checks see the left law fail first
    n = 2 * half + 1
    idx = np.arange(n)
    mul = np.broadcast_to((2 * idx % n)[:, None], (n, n))
    perm = data.draw(st.permutations(range(n)))
    add, mul, zero = relabel_tables(zmod(n).add, mul, 0, perm)
    expected = reference_table_violation(add, mul, zero)
    assert expected == "multiplication is not associative"
    with _slice_rows(data, n), pytest.raises(ValidationError) as info:
        FiniteRing("doubling", add, mul, zero=zero)
    assert str(info.value) == expected


def test_generator_check_that_contradicts_the_laws_is_an_internal_error():
    ring = zmod(12)
    with mock.patch.object(finite, "additive_generators", return_value=None):
        with pytest.raises(InternalInvariantError):
            FiniteRing("Z12", ring.add, ring.mul)


def test_nilpotency_index_stops_at_fixpoint():
    # a unital ring is its own product set from the first step on
    assert ring_nilpotency_index(zmod(256)) is None
    assert ring_nilpotency_index(finite_product(zmod(2), strictly_upper_zp(2, 2))) is None
    assert ring_nilpotency_index(strictly_upper_zp(3, 3)) == 3
    assert ring_nilpotency_index(zmod(1)) == 1


def test_validation_memory_is_quadratic_in_the_order():
    tracemalloc.start()
    try:
        zmod(256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@st.composite
def polynomial_quotient_rings(draw):
    """Z/m[x]/(x^d - f(x)) for a random f of degree below d, relabelled: random
    commutative tables, with a radical when m is not square-free or f(0) is
    not a unit."""
    m, d = draw(st.sampled_from([(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2),
                                 (4, 3), (6, 2), (8, 2)]))
    f = draw(st.lists(st.integers(0, m - 1), min_size=d, max_size=d))
    elems = list(itertools.product(range(m), repeat=d))
    index = {e: k for k, e in enumerate(elems)}

    def times(a, b):
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for k in range(2 * d - 2, d - 1, -1):  # x^k = x^(k-d) f(x)
            c, prod[k] = prod[k], 0
            for i, y in enumerate(f):
                prod[k - d + i] += c * y
        return index[tuple(v % m for v in prod[:d])]

    add = [[index[tuple((x + y) % m for x, y in zip(a, b))] for b in elems] for a in elems]
    mul = [[times(a, b) for b in elems] for a in elems]
    perm = draw(st.permutations(range(len(elems))))
    return relabel_tables(add, mul, index[(0,) * d], perm)


@settings(max_examples=80, deadline=None)
@given(st.one_of(relabelled_rings(), polynomial_quotient_rings()))
def test_jacobson_matches_the_triple_loop(tables):
    add, mul, zero = tables
    ring = FiniteRing("random", add, mul, zero=zero)
    assert jacobson_definitional(ring) == reference_jacobson_definitional(ring)


@pytest.mark.parametrize("family, params", [
    ("zn", {"n": "64"}), ("zn", {"n": "72"}), ("mat-zp", {"n": "2", "p": "3"}),
    ("t-zp", {"n": "3", "p": "5"}), ("zn-product", {"n1": "8", "n2": "16"}),
])
def test_jacobson_matches_the_triple_loop_on_the_families(family, params):
    ring = to_object(generate(family, params))
    assert jacobson_definitional(ring) == reference_jacobson_definitional(ring)


@settings(max_examples=60, deadline=None)
@given(st.one_of(relabelled_rings(), polynomial_quotient_rings()), st.data())
def test_ideal_check_matches_the_loops(tables, data):
    add, mul, zero = tables
    ring = FiniteRing("random", add, mul, zero=zero)
    elements = st.integers(0, ring.order - 1)
    seed = data.draw(st.sets(elements, max_size=3))
    closed = subset_closure(ring, seed)
    other = subset_closure(ring, {data.draw(elements)})
    x = data.draw(elements)

    def sums(subset):
        total = {zero} | set(subset)
        while len(total) < len(total | {int(add[a, b]) for a in total for b in total}):
            total |= {int(add[a, b]) for a in total for b in total}
        return frozenset(total)

    # a closure is an ideal, and dropping or adding one element rarely leaves
    # one; R x and x R are one-sided ideals, and a union of two ideals is
    # closed under products but rarely under +
    subsets = [closed, frozenset(seed), frozenset(seed | {zero}), frozenset(),
               closed - {x}, closed | {x}, sums(ring.mul[:, x]), sums(ring.mul[x]), closed | other]
    for subset in subsets:
        assert is_ideal(ring, subset) == reference_is_ideal(ring, subset), sorted(subset)
    assert is_ideal(ring, closed)


def _assert_lattice_matches_the_set_loops(ring):
    ideals = all_ideals(ring)
    assert ideals == reference_all_ideals(ring)
    for x in ring.elements():
        assert subset_closure(ring, {x}) == reference_subset_closure(ring, {x}), x
    nilpotent = [ideal for ideal in ideals if reference_subset_is_nilpotent(ring, ideal)]
    for ideal in ideals:
        assert (ring_nilpotency_index(ring, ideal) is not None) == (ideal in nilpotent), sorted(ideal)
    assert largest_nilpotent_ideal(ring) == reference_subset_closure(ring, set().union(*nilpotent))
    return ideals


@settings(max_examples=40, deadline=None)
@given(st.one_of(relabelled_rings(), polynomial_quotient_rings()))
def test_ideal_lattice_matches_the_set_loops(tables):
    add, mul, zero = tables
    _assert_lattice_matches_the_set_loops(FiniteRing("random", add, mul, zero=zero))


def _null_ring_on_z2_4():
    idx = np.arange(16)
    return FiniteRing("null(Z2^4)", idx[:, None] ^ idx[None, :], np.zeros((16, 16), dtype=np.int64))


@pytest.mark.parametrize("build, count", [
    (_null_ring_on_z2_4, 67),  # the subspaces of F_2^4
    (lambda: to_object(generate("t-zp", {"n": "4", "p": "2"})), 25),
    (lambda: to_object(generate("zn-product", {"n1": "8", "n2": "8"})), 16),
], ids=["null-z2^4", "t-zp-4-2", "zn-product-8x8"])
def test_ideal_lattice_matches_the_set_loops_on_fixed_rings(build, count):
    assert len(_assert_lattice_matches_the_set_loops(build())) == count
