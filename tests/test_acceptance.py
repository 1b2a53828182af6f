"""Acceptance suite: one test per criterion, one printed verdict line each.

Every expected value is either brute-forced in place (finite tables, matrix
models, exhaustive ideal enumeration) or checked against a frozen exact
constant; tolerances are exact equality throughout, so there is nothing to
calibrate.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from ringstruct.algebra import (
    AlgebraPresentation,
    IdealSpace,
    algebra_annihilator,
    annihilators,
    find_unity,
    generated_subring,
    power_span,
)
from ringstruct.classify import (
    DIVISION,
    NULL,
    classify,
    corner_division_check,
    minimal_unitization,
    reduced_decompose,
    semisimple_decompose,
)
from ringstruct.documents import AlgebraDocument, to_object
from ringstruct.errors import AssociativityError, ValidationError
from ringstruct.finite import (
    jacobson_definitional,
    largest_nilpotent_ideal,
    matrix_ring_zp,
    strictly_upper_zp,
    zmod,
)
from ringstruct.generators import (
    annihilator_gap,
    direct_sum,
    disconnected_example,
    finite_plus_field,
    generate,
    matrix_algebra,
    null_ring,
    reduced_ring,
    relabel,
    strictly_upper,
    upper_triangular,
)
from ringstruct.idempotents import find_idempotent, minimal_one_sided_ideal, principal_ideal
from ringstruct.linalg import Subspace, is_zero_vec, unit_vec
from ringstruct.mixed import finite_connected_split, mixed_multiply, torsion_ideal
from ringstruct.radical import (
    element_nilpotency,
    is_nilpotent,
    jacobson_radical,
    quotient_algebra,
    radical_complement,
)
from ringstruct.reports import run_report
from ringstruct.verification import verify_classify_report

from conftest import build_corpus


@contextmanager
def verdict(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"acceptance {number:02d} [{title}] FAIL")
        raise
    print(f"acceptance {number:02d} [{title}] PASS")


def test_acceptance_01_nilpotency_equivalences():
    with verdict(1, "nilpotency equivalences across the corpus"):
        start = time.monotonic()
        corpus = build_corpus()
        assert len(corpus) >= 50
        rng = random.Random(42)
        for alg in corpus:
            n = alg.dim
            if n == 0:
                continue
            flag_nilpotent = bool(is_nilpotent(alg))
            samples = [alg.basis_element(i) for i in range(n)]
            for _ in range(50):
                samples.append(alg.element([rng.randint(-4, 4) for _ in range(n)]))
            all_nil = all(element_nilpotency(x) is not None for x in samples)
            powers_vanish = power_span(alg, n + 1).dim == 0
            no_idempotent = find_idempotent(alg) is None
            radical_everything = jacobson_radical(alg, _verify=False).dim == n
            verdicts = [flag_nilpotent, all_nil, powers_vanish, no_idempotent, radical_everything]
            assert all(v == verdicts[0] for v in verdicts), (alg.name, verdicts)
        elapsed = time.monotonic() - start
        assert elapsed <= 60.0, f"nilpotency suite took {elapsed:.1f}s"


def _radical_of_modulus(n: int) -> int:
    rad, m = 1, n
    for p in range(2, n + 1):
        if m % p == 0:
            rad *= p
            while m % p == 0:
                m //= p
    return rad


def test_acceptance_02_finite_radical_oracle():
    with verdict(2, "finite definitional radical oracle"):
        start = time.monotonic()
        for n in range(1, 101):
            ring = zmod(n)
            j = jacobson_definitional(ring)
            rad = _radical_of_modulus(n) if n > 1 else 1
            expected = frozenset(range(0, n, rad)) if n > 1 else frozenset({0})
            assert j == expected, n
            assert len(j) == n // rad
        for ring in (
            matrix_ring_zp(2, 2),
            strictly_upper_zp(2, 2),
            strictly_upper_zp(3, 2),
            strictly_upper_zp(2, 3),
            strictly_upper_zp(3, 3),
        ):
            assert jacobson_definitional(ring) == largest_nilpotent_ideal(ring), ring.name
        elapsed = time.monotonic() - start
        assert elapsed <= 30.0, f"finite oracle took {elapsed:.1f}s"


def test_acceptance_03_annihilator_gap_dimension():
    with verdict(3, "shared-socle family: null ideal exceeds annihilator by n"):
        for n in (1, 2, 3):
            alg = to_object(annihilator_gap(n))
            dim = 2 * n + 1
            null_ideal = IdealSpace(
                alg,
                Subspace(dim, [unit_vec(dim, i) for i in range(1, 2 * n + 1)]),
                "two-sided",
            )
            # the ideal has trivial multiplication
            for u in null_ideal.subspace.basis_rows():
                for v in null_ideal.subspace.basis_rows():
                    assert is_zero_vec(alg.multiply_coords(u, v))
            ann = annihilators(alg.basis_elements())[2]
            assert ann.subspace == Subspace(dim, [unit_vec(dim, i) for i in range(1, n + 1)])
            assert null_ideal.dim - ann.dim == n


def test_acceptance_04_reduced_round_trip():
    with verdict(4, "reduced decomposition recovers generation parameters"):
        combos = [
            (r, p, q)
            for r, p, q in itertools.product(range(3), range(3), range(2))
            if r + p + q > 0
        ]
        for r, p, q in combos:
            alg = to_object(reduced_ring(r, p, q, "K1"))
            result = reduced_decompose(alg)
            assert result.is_reduced
            assert result.counts == {"K1": {"r": r, "p": p, "q": q, "unrecognized": 0}}
        two_label_pairs = [
            ((1, 0, 0), (0, 1, 0)),
            ((2, 1, 0), (1, 0, 1)),
            ((0, 2, 1), (2, 2, 0)),
            ((1, 1, 1), (1, 1, 0)),
        ]
        for (r1, p1, q1), (r2, p2, q2) in two_label_pairs:
            doc = direct_sum(
                [reduced_ring(r1, p1, q1, "K1"), reduced_ring(r2, p2, q2, "K2")]
            )
            result = reduced_decompose(to_object(doc))
            assert result.is_reduced
            assert result.counts == {
                "K1": {"r": r1, "p": p1, "q": q1, "unrecognized": 0},
                "K2": {"r": r2, "p": p2, "q": q2, "unrecognized": 0},
            }


def test_acceptance_05_semisimple_matrix_structure():
    with verdict(5, "matrix algebras: primitive idempotents, minimal ideals, corners"):
        for n in (1, 2, 3):
            alg = to_object(matrix_algebra(n))
            factors, family = semisimple_decompose(alg)
            assert len(factors) == 1
            assert factors[0].matrix_degree == n and factors[0].division_dim == 1
            assert len(family) == n
            total = alg.zero_element()
            for e in family.members:
                total = total + e
            assert total == find_unity(alg)
            minimal = minimal_one_sided_ideal(alg, "left")
            assert minimal.dim == n
            for e in family.members:
                column = principal_ideal(alg, e, "left").add(
                    Subspace(alg.dim, [e.coords])
                )
                assert column.dim == n
            for a, b in itertools.product(family.members, repeat=2):
                expected = DIVISION if a == b else NULL
                assert corner_division_check(alg, a, b) == expected


def test_acceptance_06_radical_complement_structure_match():
    with verdict(6, "radical complements split exactly with matching constants"):
        docs = [upper_triangular(n) for n in range(1, 5)]
        docs.append(direct_sum([upper_triangular(2, "K1"), upper_triangular(3, "K2")]))
        docs.append(direct_sum([upper_triangular(4, "K1"), upper_triangular(2, "K2")]))
        docs.append(direct_sum([upper_triangular(3, "K1"), relabel(matrix_algebra(2), "K2")]))
        for doc in docs:
            alg = to_object(doc)
            j = jacobson_radical(alg)
            s = radical_complement(alg)
            assert s.dim + j.dim == alg.dim
            assert s.subspace.intersect(j.subspace).dim == 0
            rows = s.subspace.basis_rows()
            quotient, proj = quotient_algebra(alg, j)
            images = [proj.project(r) for r in rows]
            assert Subspace(quotient.dim, images).dim == len(rows)
            from ringstruct.linalg import RatMatrix, solve

            mat = RatMatrix.from_rows(
                [[images[k][c] for k in range(len(images))] for c in range(quotient.dim)]
            )
            for a in range(len(rows)):
                for b in range(len(rows)):
                    inside = alg.multiply_coords(rows[a], rows[b])
                    assert s.subspace.contains(inside)
                    coeffs = solve(mat, quotient.multiply_coords(images[a], images[b]))
                    assert coeffs is not None
                    rebuilt = [F(0)] * alg.dim
                    for c, row in zip(coeffs, rows):
                        rebuilt = [x + c * y for x, y in zip(rebuilt, row)]
                    assert tuple(rebuilt) == inside


def test_acceptance_07_unity_subring_counts_labels():
    with verdict(7, "unital algebras: the unity generates one line per label"):
        corpus = build_corpus()
        unital_seen = 0
        for alg in corpus:
            unity = find_unity(alg)
            if unity is None:
                continue
            unital_seen += 1
            rep = classify(alg)
            assert generated_subring([unity]).dim == rep.s, alg.name
        assert unital_seen >= 5
        two_label = to_object(
            direct_sum([matrix_algebra(2, "K1"), relabel(matrix_algebra(1), "K2")])
        )
        rep = classify(two_label)
        assert rep.s == 2
        assert generated_subring([find_unity(two_label)]).dim == 2


def test_acceptance_08_unitization_bound():
    with verdict(8, "smallest unital extension obeys the dimension bound"):
        corpus = build_corpus()
        for alg in corpus:
            rep = classify(alg)
            out, embedding, _ = minimal_unitization(alg)
            increment = out.dim - alg.dim
            assert increment <= rep.r0_dim + rep.s, alg.name
            assert find_unity(out) is not None
            image = Subspace(out.dim, [unit_vec(out.dim, p) for p in embedding])
            for row in image.basis_rows():
                for i in range(out.dim):
                    e = unit_vec(out.dim, i)
                    assert image.contains(out.multiply_coords(row, e))
                    assert image.contains(out.multiply_coords(e, row))
            # embedded copy multiplies exactly as the original
            for i in range(alg.dim):
                for j in range(alg.dim):
                    expected = [F(0)] * out.dim
                    for k, c in enumerate(alg.basis_product(i, j)):
                        expected[embedding[k]] = c
                    got = out.multiply_coords(
                        unit_vec(out.dim, embedding[i]), unit_vec(out.dim, embedding[j])
                    )
                    assert tuple(expected) == got
        # equality cases: per-label-one-dimensional null rings and strict-upper families
        for doc in (null_ring(1),):
            alg = to_object(doc)
            rep = classify(alg)
            out, _, _ = minimal_unitization(alg)
            assert out.dim - alg.dim == rep.r0_dim + rep.s
        two_label_null = to_object(
            direct_sum([null_ring(1, "K1"), relabel(null_ring(1), "K2")])
        )
        rep = classify(two_label_null)
        out, _, _ = minimal_unitization(two_label_null)
        assert out.dim - two_label_null.dim == rep.r0_dim + rep.s == 2
        for n in range(2, 6):
            alg = to_object(strictly_upper(n))
            rep = classify(alg)
            out, _, _ = minimal_unitization(alg)
            assert out.dim - alg.dim == rep.r0_dim + rep.s == 1


def test_acceptance_09_disconnected_and_split():
    with verdict(9, "disconnected example and the unital finite/connected split"):
        disc = to_object(disconnected_example())
        # non-unital: no element acts as identity on the probes
        probes = [disc.element(1, [], [F(0)]), disc.element(0, [], [F(1, 3)])]
        for f in disc.finite_part.elements():
            for t_num in range(4):
                cand = disc.element(f, [], [F(t_num, 4)])
                if all(
                    mixed_multiply(cand, p) == p and mixed_multiply(p, cand) == p
                    for p in probes
                ):
                    raise AssertionError("disconnected example should be non-unital")
        assert finite_connected_split(disc) is None
        # squares land in the 2-torsion ideal
        t2 = {m.as_tuple() for m in torsion_ideal(disc, 2)}
        for f1 in disc.finite_part.elements():
            for f2 in disc.finite_part.elements():
                prod = mixed_multiply(disc.element(f1), disc.element(f2))
                assert prod.as_tuple() in t2
        glued = to_object(finite_plus_field(3))
        split = finite_connected_split(glued)
        assert split is not None
        assert split.finite_ideal.order == 3 and split.connected_algebra.dim == 1
        # componentwise multiplication on every finite/algebra pair
        for f1 in range(3):
            for f2 in range(3):
                x = glued.element(f1, [F(2)], [])
                y = glued.element(f2, [F(5)], [])
                prod = mixed_multiply(x, y)
                assert prod.finite == (f1 * f2) % 3
                assert prod.algebra == (F(10),)


def _mutate_document(doc: AlgebraDocument, rng: random.Random) -> AlgebraDocument:
    payload = dict(doc.payload)
    constants = list(payload["constants"])
    dim = payload["dim"]
    if constants and rng.random() < 0.7:
        k = rng.randrange(len(constants))
        i, j, t, c = constants[k]
        constants[k] = (i, j, t, c + rng.choice([1, -1, 2]))
    else:
        i, j, t = rng.randrange(dim), rng.randrange(dim), rng.randrange(dim)
        constants = [entry for entry in constants if entry[:3] != (i, j, t)]
        constants.append((i, j, t, F(rng.choice([1, -1, 2]))))
    payload["constants"] = tuple(sorted(constants, key=lambda x: x[:3]))
    return AlgebraDocument(doc.kind, doc.name + "-mutant", payload)


def test_acceptance_10_validation_layer():
    with verdict(10, "mutated documents: no false accepts on broken associativity"):
        rng = random.Random(2718)
        base = [
            generate("t", {"n": 3}),
            generate("t", {"n": 4}),
            generate("m", {"n": 2}),
            generate("utd", {"n": 3}),
            generate("h", {}),
            generate("ann-gap", {"n": 2}),
            generate("cocycle", {}),
        ]
        mutants = [_mutate_document(rng.choice(base), rng) for _ in range(100)]
        rejected = 0
        accepted = 0
        for doc in mutants:
            try:
                alg = to_object(doc)
            except (AssociativityError, ValidationError):
                rejected += 1
                continue
            # accepted: must genuinely satisfy associativity (independent check)
            n = alg.dim
            for i in range(n):
                for j in range(n):
                    left = alg.basis_product(i, j)
                    for k in range(n):
                        lhs = alg.multiply_coords(left, unit_vec(n, k))
                        rhs = alg.multiply_coords(
                            unit_vec(n, i), alg.basis_product(j, k)
                        )
                        assert lhs == rhs, "validator accepted a non-associative table"
            # and downstream certificates must verify
            report = run_report(doc, "classify")
            verify_classify_report(alg, report)
            accepted += 1
        assert rejected + accepted == 100
        assert rejected >= 50  # most single-constant perturbations break associativity
