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
)
from freedilation.ncprob import Word, parse_word, word_moments

rng = np.random.default_rng(4)

parts = []
for dim in (1, 2):
    t = random_contraction(rng, dim)
    res = finite_unitary_dilation(t, 2)
    # J e_0, the first basis vector of the dilation space
    parts.append((res.gens[1], State.basis_vector(res.ambient_dim, 0)))
    print(f"factor on C^{dim}: dilated to C^{res.ambient_dim}")

gens, joint = make_tensor_independent(parts)
print("joint space dimension:", gens[1].shape[0])
print()

print("mixed moments factorize across the tensor factors:")
for text in ("1^1 2^1", "1^2 2^-1", "2^1 1^1"):
    w = parse_word(text)
    # the word and each of its runs alone, in one call
    joint_val, *marginals = word_moments(joint, gens, [w, *(Word.from_runs([run]) for run in w.runs())])
    split = 1.0 + 0.0j
    for m in marginals:
        split *= complex(m)
    print(f"  phi({text:10s}) = {joint_val:+.6f}   product of marginals = {split:+.6f}")
print()

rep = tensor_independence_check(joint, gens, degree=3, tol=1e-9)
print("tensor independence certificate:")
print("  residual:", f"{rep.residual:.3e}", "| passed:", rep.passed)
