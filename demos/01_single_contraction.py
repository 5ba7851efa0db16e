"""Walk through the finite unitary dilation of a single contraction.

A contraction T on C^d embeds in a unitary U on C^((N+1)d) whose corner
compressions reproduce every power T^k for |k| <= N, for the price of one
extra defect row and a cyclic shift. Past the degree the identity breaks
by design, and we show exactly where.
"""

import numpy as np

from freedilation import (
    defect_pair,
    finite_unitary_dilation,
    operator_norm,
    parse_word,
    unitarity_residual,
    verify_power_dilation,
)

np.set_printoptions(precision=4, suppress=True, linewidth=120)

t = np.array([[0.5]])
degree = 3
res = finite_unitary_dilation(t, degree)
u = res.gens[1]

print("contraction t =", t[0, 0].real)
print("dilation degree N =", degree)
print("ambient dimension:", res.ambient_dim)
print()

dt, dt_star = defect_pair(t)
print("defect (1 - t*t)^(1/2) =", dt[0, 0].real)
print()
print("the dilation in block form (rows/cols are copies of C^1):")
print(u.real)
print()
print("unitarity residual ||U*U - I|| =", unitarity_residual(res.gens, 1))
print()

print("compressions of powers, k = 0..N and adjoints:")
for k in range(degree + 1):
    for sign in (1, -1):
        r = verify_power_dilation(res, parse_word(f"1^{sign * k}"))
        print(f"  k = {sign * k:+d}: residual {r:.3e}")
print()

print("one step past the degree the compression wraps around the cycle:")
# J includes C^d as the first d coordinates, so J* U^k J is U^k's top left corner
d = t.shape[0]
beyond = np.linalg.matrix_power(u, degree + 1)[:d, :d]
print(f"  compressed U^{degree + 1} = {beyond[0, 0].real:.6f}")
print(f"  t^{degree + 1}           = {(t[0, 0] ** (degree + 1)).real:.6f}")
gap = operator_norm(beyond - np.linalg.matrix_power(t, degree + 1))
print(f"  gap {gap:.4f}: the finite dilation promises nothing beyond N")
