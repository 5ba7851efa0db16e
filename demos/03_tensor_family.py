"""Tensor independence of separately dilated contractions.

Dilating each contraction on its own space and ampliating everything onto
the tensor product gives a commuting family whose joint state factorizes:
the certificate checks both halves and reports the worst witness.
"""

import numpy as np

from freedilation import (
    State,
    finite_unitary_dilation,
    make_tensor_independent,
    random_contraction,
    tensor_independence_check,
    word_moment,
)
from freedilation.ncprob import parse_word

rng = np.random.default_rng(4)

parts = []
for dim in (1, 2):
    t = random_contraction(rng, dim)
    res = finite_unitary_dilation(t, 2)
    xi = res.embedding.isometry @ State.basis_vector(dim, 0).vector
    parts.append((res.gens[1], State.from_vector(xi)))
    print(f"factor on C^{dim}: dilated to C^{res.ambient_dim}")

gens, joint = make_tensor_independent(parts)
print("joint space dimension:", gens[1].shape[0])
print()

print("mixed moments factorize across the tensor factors:")
for text in ("1^1 2^1", "1^2 2^-1", "2^1 1^1"):
    w = parse_word(text)
    joint_val = word_moment(joint, gens, w)
    split = 1.0 + 0.0j
    for f, k in w.runs():
        split *= word_moment(joint, gens, parse_word(f"{f}^{k}"))
    print(f"  phi({text:10s}) = {joint_val:+.6f}   product of marginals = {split:+.6f}")
print()

rep = tensor_independence_check(joint, gens, degree=3, tol=1e-9)
print("tensor independence certificate:")
print("  residual:", f"{rep.residual:.3e}", "| passed:", rep.passed)
