from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ringstruct.errors import DimensionMismatch
from ringstruct.linalg import (
    RatMatrix,
    Subspace,
    _rref_rows,
    combine,
    format_rat,
    kernel,
    kernel_basis,
    parse_rat,
    rref,
    solve,
)

from oracles import (
    reference_complement,
    reference_coords_of,
    reference_intersect,
    reference_kernel_basis,
    reference_pivots,
    reference_reduce,
    reference_rref,
    reference_rref_rows,
    reference_solve,
)


def test_rref_rank_one():
    m = RatMatrix.from_rows([[2, 4], [1, 2]])
    assert rref(m) == RatMatrix.from_rows([[1, 2], [0, 0]])


def test_rref_identity_fixed():
    assert rref(RatMatrix.identity(3)) == RatMatrix.identity(3)


def test_rref_permutation():
    m = RatMatrix.from_rows([[0, 1], [1, 0]])
    assert rref(m) == RatMatrix.identity(2)


def test_solve_identity():
    assert solve(RatMatrix.identity(2), [F(3), F(-1, 2)]) == (F(3), F(-1, 2))


def test_solve_inconsistent():
    assert solve(RatMatrix.from_rows([[1, 1], [1, 1]]), [1, 2]) is None


def test_solve_scalar():
    assert solve(RatMatrix.from_rows([[2]]), [1]) == (F(1, 2),)


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve(RatMatrix.identity(2), [1, 2, 3])


def test_kernel_line():
    assert kernel(RatMatrix.from_rows([[1, 1]])) == Subspace(2, [[1, -1]])


def test_kernel_identity_trivial():
    assert kernel(RatMatrix.identity(4)).dim == 0


def test_kernel_zero_matrix_full():
    assert kernel(RatMatrix.from_rows([[0, 0], [0, 0]])).dim == 2


def test_complement_standard():
    u = Subspace(2, [[1, 0]])
    assert u.complement_in(Subspace.full(2)) == Subspace(2, [[0, 1]])


def test_intersect_trivial():
    assert Subspace(2, [[1, 1]]).intersect(Subspace(2, [[1, 0]])).dim == 0


def test_sum_full():
    assert Subspace(2, [[1, 0]]).add(Subspace(2, [[0, 1]])) == Subspace.full(2)


def test_canonical_equality():
    a = Subspace(3, [[1, 1, 0], [0, 1, 1]])
    b = Subspace(3, [[1, 0, -1], [2, 3, 1]])
    assert a == b
    assert a.basis == b.basis


def test_complement_requires_containment():
    with pytest.raises(DimensionMismatch):
        Subspace(2, [[1, 0]]).complement_in(Subspace(2, [[0, 1]]))


small_rationals = st.integers(min_value=-6, max_value=6)


def vectors(n):
    return st.lists(small_rationals, min_size=n, max_size=n)


def subspaces(n):
    return st.lists(vectors(n), min_size=0, max_size=n + 1).map(lambda vs: Subspace(n, vs))


@settings(max_examples=120, deadline=None)
@given(st.lists(vectors(4), min_size=1, max_size=5))
def test_rref_preserves_rowspace(rows):
    m = RatMatrix.from_rows(rows)
    reduced = rref(m)
    original = Subspace(4, rows)
    after = Subspace(4, reduced.row_list())
    assert original.contains_subspace(after)
    assert after.contains_subspace(original)


@settings(max_examples=120, deadline=None)
@given(subspaces(4), subspaces(4))
def test_grassmann_dimension_identity(u, v):
    assert u.add(v).dim + u.intersect(v).dim == u.dim + v.dim


@settings(max_examples=120, deadline=None)
@given(subspaces(4), subspaces(4))
def test_complement_splits(u, v):
    big = u.add(v)
    w = u.complement_in(big)
    assert u.intersect(w).dim == 0
    assert u.add(w) == big


@settings(max_examples=120, deadline=None)
@given(st.lists(vectors(3), min_size=2, max_size=4), vectors(3))
def test_solve_substitutes_exactly(rows, target):
    m = RatMatrix.from_rows([list(r) for r in zip(*rows)])  # 3 x k
    x = solve(m, target)
    if x is not None:
        assert m.mat_vec(x) == tuple(F(t) for t in target)
    else:
        assert not Subspace(3, rows).contains(target)


def test_rational_serialization_round_trip():
    for q in [F(0), F(3), F(-7, 2), F(22, 7)]:
        assert parse_rat(format_rat(q)) == q
    assert format_rat(F(4, 2)) == "2"
    assert format_rat(F(-1, 3)) == "-1/3"


# -- the integer kernel against the Fraction reference (tests/oracles.py) ------

# Plain ints mixed with Fractions, many zeros, and denominators up to 10^30.
entries = st.one_of(
    st.just(0),
    st.integers(min_value=-5, max_value=5),
    st.builds(F, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=9)),
    st.builds(
        F,
        st.integers(min_value=-(10**30), max_value=10**30),
        st.integers(min_value=1, max_value=10**30),
    ),
)


@st.composite
def row_stacks(draw, n=None):
    """``(n, rows)``: up to 3n rows of length n, with zero, repeated and dependent rows."""
    if n is None:
        n = draw(st.integers(min_value=1, max_value=5))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=3 * n))):
        kind = draw(st.sampled_from(("fresh", "zero", "repeat", "combination")))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combination" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(entries)
            rows.append([F(x) + c * F(y) for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(entries, min_size=n, max_size=n)))
    return n, rows


@st.composite
def stack_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    return n, draw(row_stacks(n))[1], draw(row_stacks(n))[1]


def matrix(n, rows):
    return RatMatrix(len(rows), n, [x for r in rows for x in r])


def all_fractions(rows):
    return all(type(x) is F for r in rows for x in r)


def in_span_or_not(draw, n, rows):
    """A vector that is a combination of ``rows`` or an arbitrary one."""
    if rows and draw(st.booleans()):
        coeffs = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
        return [sum((F(c) * F(r[j]) for c, r in zip(coeffs, rows)), F(0)) for j in range(n)]
    return draw(st.lists(entries, min_size=n, max_size=n))


kernel_settings = settings(max_examples=200, deadline=None)


@kernel_settings
@given(row_stacks())
def test_rref_rows_match_fraction_reference(stack):
    n, rows = stack
    basis, pivots = _rref_rows(rows)
    expected = reference_rref_rows(rows)
    assert basis == [tuple(r) for r in expected]
    assert pivots == reference_pivots(expected)
    assert all_fractions(basis)


@kernel_settings
@given(row_stacks())
def test_rref_keeps_shape(stack):
    n, rows = stack
    reduced = rref(matrix(n, rows))
    assert (reduced.rows, reduced.cols) == (len(rows), n)
    assert list(reduced.entries) == [x for r in reference_rref(rows, n) for x in r]


@kernel_settings
@given(row_stacks(), st.data())
def test_solve_matches_fraction_reference(stack, data):
    n, rows = stack
    a = matrix(n, rows)
    if data.draw(st.booleans()):
        # consistent: b = a x
        b = list(a.mat_vec(data.draw(st.lists(entries, min_size=n, max_size=n))))
    else:
        b = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    x = solve(a, b)
    assert x == reference_solve(rows, n, b)
    if x is not None:
        assert all_fractions([x])
        assert a.mat_vec(x) == tuple(F(y) for y in b)


@kernel_settings
@given(row_stacks())
def test_kernel_basis_matches_fraction_reference(stack):
    n, rows = stack
    basis = kernel_basis(matrix(n, rows))
    assert basis == reference_kernel_basis(rows, n)
    assert all_fractions(basis)


@kernel_settings
@given(row_stacks())
def test_subspace_basis_and_pivots_match_fraction_reference(stack):
    n, rows = stack
    space = Subspace(n, rows)
    expected = reference_rref_rows(rows)
    assert space.basis_rows() == [tuple(r) for r in expected]
    assert space.basis == RatMatrix(len(expected), n, [x for r in expected for x in r])
    assert space.pivots() == reference_pivots(expected)
    assert space == Subspace(n, expected)


@kernel_settings
@given(row_stacks(), st.data())
def test_membership_matches_fraction_reference(stack, data):
    n, rows = stack
    space = Subspace(n, rows)
    basis = reference_rref_rows(rows)
    v = in_span_or_not(data.draw, n, rows)
    remainder = space.reduce(v)
    assert remainder == reference_reduce(basis, v)
    assert all_fractions([remainder])
    assert space.contains(v) == (not any(reference_reduce(basis, v)))
    assert space.coords_of(v) == reference_coords_of(basis, v)


@kernel_settings
@given(stack_pairs())
def test_intersect_matches_fraction_reference(pair):
    n, u_rows, v_rows = pair
    u, v = Subspace(n, u_rows), Subspace(n, v_rows)
    expected = reference_intersect(reference_rref_rows(u_rows), reference_rref_rows(v_rows), n)
    assert u.intersect(v).basis_rows() == [tuple(r) for r in expected]


@kernel_settings
@given(stack_pairs())
def test_complement_in_matches_fraction_reference(pair):
    n, u_rows, w_rows = pair
    u = Subspace(n, u_rows)
    outer = u.add(Subspace(n, w_rows))
    expected = reference_complement(
        reference_rref_rows(u_rows), reference_rref_rows(u_rows + w_rows)
    )
    assert u.complement_in(outer).basis_rows() == [tuple(r) for r in expected]
    if reference_rref_rows(w_rows + u_rows) != reference_rref_rows(w_rows):
        with pytest.raises(DimensionMismatch):
            outer.complement_in(Subspace(n, w_rows))


def test_all_zero_and_empty_inputs():
    assert _rref_rows([]) == ([], [])
    assert _rref_rows([[0, 0], [F(0), 0]]) == ([], [])
    assert Subspace(3, [[0, 0, 0]]) == Subspace.zero(3)
    assert rref(RatMatrix(2, 2, [0, 0, 0, 0])) == RatMatrix(2, 2, [0, 0, 0, 0])
    assert kernel_basis(RatMatrix(0, 2, [])) == [[1, 0], [0, 1]]
    assert solve(RatMatrix(2, 1, [0, 0]), [0, 0]) == (0,)
    assert solve(RatMatrix(2, 1, [0, 0]), [0, 1]) is None


def test_subspace_takes_ints_as_they_are_and_coerces_other_types():
    fractions = [[F(1, 2), F(0), F(3)], [F(0), F(1), F(-1, 3)]]
    space = Subspace(3, fractions)
    assert Subspace(3, [[F(1, 2), 0, 3], [0, 1, F(-1, 3)]]) == space
    assert Subspace(3, [["1/2", "0", "3"], ["0", 1, "-1/3"]]) == space
    assert space.contains([1, 2, 6 - F(2, 3)]) and space.contains(["1", "2", "16/3"])
    assert not space.contains([1, 2, 5]) and not space.contains(["1", "2", "5"])
    assert space.reduce(["1", "2", "5"]) == space.reduce([1, 2, 5]) == (0, 0, F(-1, 3))


@kernel_settings
@given(row_stacks(), st.data())
def test_int_entries_give_the_subspace_of_their_fractions(stack, data):
    n, rows = stack
    as_fractions = [[F(x) for x in r] for r in rows]
    space = Subspace(n, rows)
    assert space == Subspace(n, as_fractions)
    v = in_span_or_not(data.draw, n, rows)
    assert space.contains(v) == space.contains([F(x) for x in v])
    coeffs = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    assert combine(coeffs, rows, n) == tuple(
        sum((F(c) * F(r[j]) for c, r in zip(coeffs, rows)), F(0)) for j in range(n)
    )
