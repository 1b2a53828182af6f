# The classifier assembles the whole verdict: an annihilator factor, one
# non-null factor per field label, radical and semisimple data per factor,
# and unitality.  Non-unital algebras embed in a smallest unital extension.
from ringstruct.algebra import find_unity, generated_subring
from ringstruct.classify import classify, minimal_unitization
from ringstruct.documents import to_object
from ringstruct.generators import (
    direct_sum,
    matrix_algebra,
    null_ring,
    relabel,
    strictly_upper,
)


def show(alg):
    rep = classify(alg)
    print(f"{rep.algebra_name}: dim {rep.dim}, s = {rep.s}, annihilator factor dim {rep.r0_dim}")
    for f in rep.factors:
        shapes = [(sf.matrix_degree, sf.division_dim, sf.division_type) for sf in f.simple_factors]
        print(
            f"  factor over {f.field_label}: dim {f.ideal.dim}, radical {f.radical_dim},"
            f" nilpotent {f.is_nilpotent}, simple parts {shapes}"
        )
    if rep.unital:
        print("  unital; the unity generates", rep.unity_subring_dim, "independent lines")
    return rep


show(to_object(null_ring(3)))
print()
show(to_object(strictly_upper(3)))
print()
two_label = to_object(direct_sum([matrix_algebra(2, "K1"), relabel(matrix_algebra(1), "K2")]))
rep = show(two_label)
unity = find_unity(two_label)
print("  check: dim of the subring generated by 1 =", generated_subring([unity]).dim)

print("\nsmallest unital extensions:")
for doc in (strictly_upper(3), null_ring(1)):
    alg = to_object(doc)
    rep = classify(alg)
    out, embedding, _ = minimal_unitization(alg)
    print(
        f"  {alg.name}: dim {alg.dim} -> {out.dim}"
        f" (increment {out.dim - alg.dim} <= bound {rep.r0_dim + rep.s});"
        f" embeds at coordinates {embedding}"
    )
