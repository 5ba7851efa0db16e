"""Iterated dilation of a doubly commuting pair.

Two contractions that commute with each other and with each other's
adjoints admit simultaneous unitary dilations that still doubly commute,
and every ordered mixed power compresses back exactly. Normal commuting
matrices give an easy supply of doubly commuting inputs.
"""

import itertools

import numpy as np

from freedilation import (
    NotDoublyCommutingError,
    Word,
    doubly_commuting_dilation,
    verify_power_dilation,
)
from freedilation.ncprob import worst_commutator

rng = np.random.default_rng(8)

# commuting normals: same unitary eigenbasis, different eigenvalues
dim = 3
q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
eigs = [
    rng.uniform(0.2, 0.9, dim) * np.exp(2j * np.pi * rng.uniform(size=dim))
    for _ in range(2)
]
ops = [q @ np.diag(e) @ q.conj().T for e in eigs]

degree = 2
res = doubly_commuting_dilation(ops, degree)
print("input dims:", dim, "x", dim, "| degree:", degree)
print("ambient dimension after two iterations:", res.ambient_dim)
print("double commutation residual of the dilated pair:",
      f"{worst_commutator(res.gens)[0]:.3e}")
print()

print("ordered words U1^k1 U2^k2 with |ki| <= 2:")
powers = range(-degree, degree + 1)
words = [Word.from_runs([(1, k1), (2, k2)]) for k1, k2 in itertools.product(powers, repeat=2)]
worst = max(verify_power_dilation(res, word) for word in words)
print(f"  {len(words)} words, max residual {worst:.3e}")
print()

# the constructor refuses inputs that only commute on one side: b is a
# polynomial in the non-normal a, so ab = ba but a*b != ba*
a = np.array([[0.0, 0.5], [0.0, 0.0]])
b = 0.5 * a + 0.4 * np.eye(2)
try:
    doubly_commuting_dilation([a, b], 1)
except NotDoublyCommutingError as exc:
    print("refused a merely commuting pair:")
    print(" ", exc)
