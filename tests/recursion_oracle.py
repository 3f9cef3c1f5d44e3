"""The paper's convolution recursion for the summand-indexed operators, kept as a test oracle.

The library builds ``psi^(k)_t`` in closed form, ``sum_i Q_{i-1}(k) A^i_t``.
The function here takes the paper's definition instead:
``psi^(1) = psi`` and ``psi^(k)_t = psi^(k-1)_t + sum_p psi_p psi^(k-1)_{t-p}``,
one summand at a time.  Only ``3 <= p <= t - 3`` contributes, since the basic
operators vanish below order 3.
"""

from edgeworth.opalg import psi_op


def psi_k_recursive(table, k_max, t_max):
    """``rows[k][t] = psi^(k)_t`` for ``1 <= k <= k_max`` and ``0 <= t <= t_max``.

    ``rows[0]`` is ``None``, so that the summand index reads directly.
    """
    psi = [psi_op(table, t) for t in range(t_max + 1)]
    rows = [None, psi]
    for _ in range(2, k_max + 1):
        prev = rows[-1]
        row = []
        for t in range(t_max + 1):
            acc = prev[t]
            for p in range(3, t - 2):
                acc = acc + psi[p].compose(prev[t - p])
            row.append(acc)
        rows.append(row)
    return rows
