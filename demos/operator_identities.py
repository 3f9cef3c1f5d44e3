"""The operator algebra and its exact identities.

The n-summand expansion is driven by constant-coefficient differential
operators built from moment differences.  Structurally different
constructions must coincide exactly, coefficient by coefficient:

  * the summand-indexed operators, defined by the paper's convolution
    recursion, equal a Q-weighted combination of the i-fold product
    operators:  psi^(k)_t = sum_i Q_{i-1}(k) A^i_t,
  * their partial sums collapse to P-weighted combinations:
    T^n_t = sum_{k<=n} psi^(k)_t = sum_i P_i(n) A^i_t,
  * the coefficient of d_S in A^i_t is the sum of the paper's per-ordering
    coefficients c^i_gamma over the orderings gamma of S.

On a rational moment fixture everything is a Fraction, so "equal" below
means exact dictionary equality of the operators, not closeness.
"""

from itertools import product

from edgeworth import (
    DiffOperator,
    a_op,
    c_coeff,
    fixture_table,
    p_value,
    psi_k_op,
    psi_op,
    q_value,
    t_op,
)

table = fixture_table(2, 9)  # 2-D rational moment differences

print("Basic operator of order 4 on the 2-D fixture:")
for key, coeff in psi_op(table, 4).items():
    print(f"  d{list(key)} * {coeff}")

print("\nThe i-fold products vanish below order 3i:")
print("  A^2_5 == 0:", a_op(table, 2, 5).is_zero())
print("  A^2_6 terms:", len(a_op(table, 2, 6).terms))

print("\nCollapse identity at (k, t) = (7, 9):")
# psi^(k)_t = psi^(k-1)_t + sum_p psi_p psi^(k-1)_{t-p}, from psi^(1) = psi
psi = [psi_op(table, t) for t in range(10)]
row = psi
for _ in range(6):
    row = [row[t] + sum((psi[p].compose(row[t - p]) for p in range(3, t - 2)),
                        DiffOperator.zero(2))
           for t in range(10)]
lhs = row[9]
rhs = DiffOperator.zero(2)
for i in (1, 2, 3):
    rhs = rhs + q_value(i - 1, 7) * a_op(table, i, 9)
print("  recursive psi^(7)_9 == Q_0(7) A^1_9 + Q_1(7) A^2_9 + Q_2(7) A^3_9:", lhs == rhs)
print("  library psi_k_op(7, 9) == recursive psi^(7)_9:", psi_k_op(table, 7, 9) == lhs)
print("  Q values:", [str(q_value(i, 7)) for i in (0, 1, 2)])

print("\nPartial-sum identity at (n, t) = (12, 9):")
summed = t_op(table, 12, 9, "sum")       # literally adds psi^(1..12)_9
direct = t_op(table, 12, 9, "direct")    # P_i(12)-weighted products
print("  sum-of-psi^(k) == P-weighted form:", summed == direct)
print("  P_i(12):", [str(p_value(i, 12)) for i in (1, 2, 3)])

print("\nA^2_9 against the paper's coefficient form, summed per sorted key:")
by_key = {}
for gamma in product((1, 2), repeat=9):  # every ordering of every key
    key = tuple(sorted(gamma))
    by_key[key] = by_key.get(key, 0) + c_coeff(table, 2, gamma)
a29 = a_op(table, 2, 9)
print(f"  sum of c^2 over the orderings of S == coefficient of d_S ({len(a29.terms)} keys):",
      DiffOperator(2, by_key) == a29)
