"""Block banded generalization of accelerated recursive doubling.

A matrix of symmetric block bandwidth ``b`` is block tridiagonal in
super-blocks of order ``bM``, so the paper's algorithm solves it
unchanged once ``b`` rows are grouped into one (see
:mod:`repro.banded.solver`).
"""

from .matrix import BlockBandedMatrix
from .solver import BandedARDFactorization

__all__ = ["BlockBandedMatrix", "BandedARDFactorization"]
