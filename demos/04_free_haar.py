"""Free Haar unitaries from dilating two zero contractions.

The zero scalar has no unitary structure at all, yet its dilations on the
truncated free product space are freely independent Haar unitaries: every
nontrivial power has vanishing vacuum moment, and mixed moments agree with
the combinatorial oracle that knows only the marginals.
"""

import numpy as np

from freedilation import (
    State,
    free_independence_check,
    free_mixed_moment_oracle,
    free_unitary_dilation,
    haar_unitary_marginal,
    trace_check,
)
from freedilation.ncprob import Word, word_moments

s = State.basis_vector(1, 0)
fds = free_unitary_dilation([(np.zeros((1, 1)), s), (np.zeros((1, 1)), s)], 3, 4)
gens = fds.unitaries
vac = fds.vacuum

print("two zero scalars, degree 3, truncation length 4")
print("truncated product space dimension:", fds.dim)
print()

print("single-letter moments phi(U_i^k), k = -3..3:")
for i in (1, 2):
    row = word_moments(vac, gens, [Word.from_runs([(i, k)]) for k in range(-3, 4)])
    print(f"  U_{i}:", " ".join(f"{v.real:+.3f}" for v in row))
print("only k = 0 survives: each factor is a Haar unitary in distribution")
print()

marginals = {1: haar_unitary_marginal(), 2: haar_unitary_marginal()}
print("products against the oracle:")
for k in (1, 2):
    w = Word.from_runs([(1, 1), (2, 1)] * k)
    got = complex(word_moments(vac, gens, [w])[0])
    want = free_mixed_moment_oracle(marginals, w)
    print(f"  phi((U1 U2)^{k}) = {got.real:+.3e}   oracle {want.real:+.3e}")
print()

free_rep = free_independence_check(vac, gens, max_len=4, degree=3)
trace_rep = trace_check(vac, gens, degree=3)
print("free independence certificate: residual",
      f"{free_rep.residual:.3e}", "| passed:", free_rep.passed)
print("traciality certificate:        residual",
      f"{trace_rep.residual:.3e}", "| passed:", trace_rep.passed)
