"""The Communicator's collective operations, by method name.

Linter rule RC101 (:mod:`repro.check.linter`) reads this set to
recognise a collective called under a rank-conditional branch.  The
set is descriptive, not executable: :class:`~.communicator.Communicator`
does not consult it at runtime.  A drift test (tests/test_check.py)
asserts it equals the Communicator's public methods minus the
point-to-point and local ones, so a new collective cannot escape RC101.
"""

from __future__ import annotations

__all__ = ["COLLECTIVE_OPS"]

#: Collective operations whose call sequence must match across ranks.
COLLECTIVE_OPS: frozenset[str] = frozenset({
    "barrier", "bcast", "gather", "allgather", "scatter", "alltoall",
    "reduce", "allreduce", "scan", "exscan", "split", "dup",
})
