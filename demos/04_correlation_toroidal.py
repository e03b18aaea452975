"""Correlation matrices, Schur channels, and toroidal rank.

A Schur channel X -> C (.) X is mixed unitary exactly when C is a convex
combination of unimodular rank-one factors; the fewest terms needed is
the toroidal rank of C.  Up to 3 x 3 the toroidal rank equals rank(C) and
a decomposition is constructed in closed form; the 4 x 4 example below
has rank 3 but toroidal rank 4, and tensoring it with the 2 x 2 identity
gives ranks 4 x 2 -> 6: toroidal rank is not multiplicative.
"""
import numpy as np

from muchan import (SearchConfig, kron, numerical_rank, schur_channel,
                    search_isometry, toroidal_decompose_small)
from muchan.constructive import toroidal_from_decomposition
from muchan.gallery import corr_B3, corr_C4, mub_correlation, toroidal_CtensorI2

b = corr_B3()
print("B (3x3, rank 2):")
print(np.round(b, 6).real)
t = toroidal_decompose_small(b)
print("toroidal decomposition, terms:", t.n_terms,
      " residual:", f"{np.linalg.norm(t.matrix() - b):.2e}")
for p, v in zip(t.probs, t.vectors):
    print(f"  p={p:.4f}  u={np.round(v, 4)}")

c = corr_C4()
print("\nC = B (+) [1]:  rank", numerical_rank(c), "-- but toroidal rank 4:")
phi = schur_channel(c)
res = search_isometry(phi, 4, SearchConfig(restarts=40, seed=0))
print("  search at N=4:", res.status)
tc = toroidal_from_decomposition(res.decomposition)
print("  reconstruction residual:", f"{np.linalg.norm(tc.matrix() - c):.2e}")

big = kron(c, np.eye(2))
t6 = toroidal_CtensorI2()
print("\nC (x) I_2: rank", numerical_rank(big),
      " toroidal decomposition with", t6.n_terms, "terms, residual",
      f"{np.linalg.norm(t6.matrix() - big):.2e}")

mc = mub_correlation(3)
print("\nMUB correlation (d=3): shape", mc.matrix.shape,
      " rank", numerical_rank(mc.matrix),
      " rank(conj(C).C) =", numerical_rank(np.conj(mc.matrix) * mc.matrix),
      "(= d^2 - d + 1)")
print("  toroidal decomposition residual:",
      f"{np.linalg.norm(mc.decomposition.matrix() - mc.matrix):.2e}")
