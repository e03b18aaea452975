"""Channel representations: Kraus lists and their Choi matrices,
complementary channels, operator systems.

Builds the completely dephasing channel and a discrete Weyl channel, then
walks through the quantities the rest of the toolkit is built on.  The
Choi rank is the length of the minimal Kraus list, ``len(minimize_kraus(phi))``;
a Choi matrix converts back to that list with ``kraus_from_choi``.
"""
import numpy as np

from muchan import (choi_of, complementary, dephasing_channel, kraus_from_choi,
                    minimize_kraus, operator_system)
from muchan.gallery import weyl_channel

delta = dephasing_channel(2)
print("completely dephasing channel on M_2:", delta)
print("  Phi([[1,1],[1,1]]) =")
print(np.round(delta(np.ones((2, 2))), 12).real)

j = choi_of(delta)
print("  Choi matrix (output (x) input ordering):")
print(np.round(j, 12).real)
print("  Choi rank =", len(minimize_kraus(delta)))

mk = kraus_from_choi(j, 2, 2)
print("  minimal Kraus list size:", len(mk.kraus))

psi = complementary(delta)
print("  complementary channel maps M_2 ->", f"M_{psi.dim_out}")
x = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]])
print("  Psi(x) for a state x (diagonal of x, up to basis):")
print(np.round(psi(x), 12))

phi = weyl_channel(3)
print("\ndiscrete Weyl channel, p = 3:", phi)
print("  Choi rank r =", len(minimize_kraus(phi)))
print("  operator system dimension s =", operator_system(phi).s,
      " (= p^2 - p + 1)")
