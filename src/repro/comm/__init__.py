"""Simulated message-passing substrate (the library's "MPI").

This package replaces the MPI cluster of the original paper with a
thread-based SPMD runtime whose API mirrors mpi4py's object interface
(see DESIGN.md, "Hardware substitution").  Entry point:

>>> from repro.comm import run_spmd
>>> def program(comm):
...     return comm.allreduce(comm.rank)
>>> result = run_spmd(program, 4)
>>> result.values
[6, 6, 6, 6]

Every rank runs ``program`` with its own :class:`Communicator`; the
returned :class:`~repro.comm.stats.SimulationResult` carries per-rank
return values plus modelled virtual times, flop counts and traffic.
"""

from .communicator import (
    ANY_SOURCE,
    ANY_TAG,
    Communicator,
    MAX,
    MIN,
    Request,
    Status,
    SUM,
)
from .costmodel import CostModel, DEFAULT_COST_MODEL, payload_nbytes
from .clock import VirtualClock
from .fastcopy import fastcopy, fastcopy_counted
from .matching import WaitInfo, deadlock_report, find_wait_cycle, match_in, peek_in
from .optable import COLLECTIVE_OPS
from .runtime import CommAborted, run_spmd
from .stats import RankStats, SimulationResult

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Communicator",
    "Request",
    "Status",
    "SUM",
    "MAX",
    "MIN",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "payload_nbytes",
    "VirtualClock",
    "fastcopy",
    "fastcopy_counted",
    "WaitInfo",
    "match_in",
    "peek_in",
    "find_wait_cycle",
    "deadlock_report",
    "COLLECTIVE_OPS",
    "CommAborted",
    "run_spmd",
    "RankStats",
    "SimulationResult",
]
