"""Werner-Holevo channels and their minimal mixed-unitary decompositions.

The symmetric channel (Tr(X) I + X^T)/(n+1) and the anti-symmetric
channel (Tr(X) I - X^T)/(n-1) have Choi matrices proportional to the
symmetric and anti-symmetric projectors.  For even n both achieve
mixed-unitary rank equal to Choi rank via one-factorizations of the
complete graph; for odd n the symmetric channel gets n(n+3)/2 terms, and
at n = 3 an exceptional orthogonal six-pack of symmetric unitaries is
minimal.
"""
import numpy as np

from muchan import minimize_kraus, verify_decomposition
from muchan.gallery import (one_factorization, wh_antisym_decomposition,
                            wh_channels, wh_sym3_decomposition,
                            wh_sym_even_decomposition, wh_sym_odd_decomposition)

print("one-factorization of K_6 (circle method):")
for i, matching in enumerate(one_factorization(6).matchings):
    print(f"  round {i}: {matching}")

for n in (2, 4, 6):
    pair = wh_channels(n)
    d1 = wh_antisym_decomposition(n)
    d0 = wh_sym_even_decomposition(n)
    print(f"\nn={n}: rank J(phi1) = {len(minimize_kraus(pair.phi1))}, "
          f"anti-symmetric decomposition terms = {d1.n_terms}, "
          f"residual {verify_decomposition(pair.phi1, d1).choi_residual:.1e}")
    print(f"      rank J(phi0) = {len(minimize_kraus(pair.phi0))}, "
          f"symmetric decomposition terms = {d0.n_terms}, "
          f"residual {verify_decomposition(pair.phi0, d0).choi_residual:.1e}")

for n in (3, 5):
    d = wh_sym_odd_decomposition(n)
    phi0 = wh_channels(n).phi0
    print(f"\nodd n={n}: rank {len(minimize_kraus(phi0))} <= mixed-unitary rank "
          f"<= {d.n_terms} (= n(n+3)/2), residual "
          f"{verify_decomposition(phi0, d).choi_residual:.1e}")

print("\nn=3 minimal six-term decomposition (rank 6 achieved):")
d6 = wh_sym3_decomposition()
res = verify_decomposition(wh_channels(3).phi0, d6)
print("  residual:", f"{res.choi_residual:.2e}")
print("  U_3 =")
print(np.round(d6.unitaries[2], 6))
print("whether the n(n+1)/2 floor is attained for odd n >= 5 is open;"
      " murank_search(wh_channels(n).phi0, ...) runs the experiment.")
