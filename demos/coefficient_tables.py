"""Walk through the exact coefficient tables behind the expansion.

Everything printed here is an exact rational: the P_i polynomials that
count iterated summand contributions, P_i(n) = C(n, i), with their
coefficient rows a[i] (the signed Stirling numbers of the first kind over
i!), the per-summand weights Q_l(k) = C(k-1, l), and finally the corrector
polynomials K_1..K_3 for three standardized laws, which reproduce the
classical one-dimensional Edgeworth coefficients.
"""

from math import comb

from edgeworth import (
    MomentTable,
    a_coeffs,
    k_poly,
    make_distribution,
    p_value,
    q_value,
)


def show_poly(p):
    bits = []
    for e, c in sorted(p.terms.items()):
        deg = e[0]
        mono = "1" if deg == 0 else ("x" if deg == 1 else f"x^{deg}")
        bits.append(f"({c})*{mono}")
    return " + ".join(bits) if bits else "0"


print("Polynomials P_i(n) = sum_p a[i][p] n^p = C(n, i) (vanish for n < i):")
for i in range(1, 5):
    vals = [str(p_value(i, n)) for n in range(1, 8)]
    binoms = [comb(n, i) for n in range(1, 8)]
    print(f"  a[{i}] = {[str(c) for c in a_coeffs(i)]}")
    print(f"    P_{i}(1..7) = {vals}   C(1..7, {i}) = {binoms}")

print("\nPer-summand weights Q_l(k) = C(k-1, l):")
for l in range(4):
    print(f"  Q_{l}(1..7) = {[str(q_value(l, k)) for k in range(1, 8)]}")

print("\nCorrector polynomials for three standardized laws")
print("(the H_3/H_4/H_6... combinations of the classical 1-D expansion):")
for name in ("exponential", "uniform", "laplace"):
    table = MomentTable.from_distribution(make_distribution(name), 9)
    print(f"\n  {name}: ell_3={table.ell(3)}, ell_4={table.ell(4)}, ell_5={table.ell(5)}")
    for m in (1, 2, 3):
        print(f"    K_{m}(x) = {show_poly(k_poly(table, m))}")

print("\nA fourth-moment-matched check: the uniform law has ell_3 = 0, so its")
print("first corrector vanishes identically and the plain Gaussian already")
print("approximates at the faster rate (see demos/convergence_rates.py).")
