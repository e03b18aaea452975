"""Global tolerance policy.

One object carries the two cutoffs used throughout the package so that
every rank decision and every equality test is made against the same,
explicitly chosen thresholds.  The Stiefel search accepts on its own
``SearchConfig.objective_tol``, a sum of squared moduli.
"""
from dataclasses import dataclass

from .exceptions import ValidationError


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
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be strictly positive")
        if self.eps_rank > 1:
            raise ValidationError("eps_rank must be at most 1")


DEFAULT_TOL = Tolerance()
