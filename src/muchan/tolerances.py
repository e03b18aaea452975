"""Global tolerance policy.

One object carries the two cutoffs used throughout the package, and its
four methods are the rules that apply them: ``rank`` decides r, s and
every numerical rank; ``is_psd``, ``is_close`` and ``is_hermitian`` make
every PSD, closeness and Hermitian test.  The Stiefel search also gates
on its own ``search.OBJECTIVE_TOL``, a sum of squared moduli.
"""
from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError

# is_psd scales its cutoff by the largest eigenvalue floored at this, so the
# zero matrix is PSD and a negative eigenvalue of a zero-scale matrix is not.
_PSD_SCALE_FLOOR = 1e-300


@dataclass(frozen=True)
class Tolerance:
    """Numerical tolerance policy.

    Attributes
    ----------
    eps_rank : float
        Relative singular/eigenvalue cutoff for numerical ranks.
    eps_eq : float
        Relative entrywise/Frobenius threshold for equality tests.
    """

    eps_rank: float = 1e-9
    eps_eq: float = 1e-9

    def __post_init__(self):
        for name in ("eps_rank", "eps_eq"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValidationError(f"{name} must be strictly positive and finite")
        if self.eps_rank > 1:
            raise ValidationError("eps_rank must be at most 1")

    def rank(self, values) -> int:
        """Count of |x| > eps_rank * max |x|; 0 when none or all vanish."""
        mags = np.abs(values)
        return int(np.count_nonzero(mags > self.eps_rank * mags.max())) if mags.size else 0

    def is_psd(self, w) -> bool:
        """Ascending eigenvalues w: w[0] >= -eps_rank * max(w[-1], _PSD_SCALE_FLOOR)."""
        return bool(w[0] >= -self.eps_rank * max(float(w[-1]), _PSD_SCALE_FLOOR))

    def is_close(self, defect: float, n: int) -> bool:
        """Frobenius defect from an n x n target <= eps_eq * max(1, sqrt(n))."""
        return bool(defect <= self.eps_eq * max(1.0, np.sqrt(n)))

    def is_hermitian(self, m) -> bool:
        """||m - m*|| <= eps_eq * max(1, ||m||)."""
        return bool(np.linalg.norm(m - np.conj(m).T)
                    <= self.eps_eq * max(1.0, float(np.linalg.norm(m))))


DEFAULT_TOL = Tolerance()
