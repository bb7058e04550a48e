#!/usr/bin/env python3
"""Banded systems: an Euler–Bernoulli-beam-flavoured pentadiagonal solve.

Fourth-order operators (beam bending, plate problems, high-order
compact stencils) discretize to *pentadiagonal* systems — bandwidth 2,
outside the tridiagonal world the paper treats — until b block
rows are grouped into one: a bandwidth-b matrix is block tridiagonal in
super-blocks of order bM.  The `repro.banded` extension regroups it
that way and runs the paper's accelerated recursive doubling unchanged
(state 2bM; traced scan, replay, closing solve and refinement as in the
tridiagonal case).

This script builds an oscillatory block pentadiagonal system, solves it
for many right-hand sides with the banded ARD factorization across
simulated ranks, verifies against dense LAPACK, and shows the same
factor-once/solve-many economics as the tridiagonal case.

Run:  python examples/banded_beam.py
"""

import numpy as np

from repro.banded import BandedARDFactorization
from repro.perfmodel import PAPER_ERA_MODEL
from repro.workloads import banded_oscillatory_system, random_rhs


def main() -> None:
    nblocks, block_size, bandwidth, nrhs, nranks = 96, 4, 2, 64, 8
    matrix, info = banded_oscillatory_system(
        nblocks, block_size, bandwidth=bandwidth, seed=0
    )
    print(f"system: block pentadiagonal (b={bandwidth}), N={nblocks}, "
          f"M={block_size} ({nblocks * block_size} unknowns), "
          f"R={nrhs} right-hand sides, P={nranks} simulated ranks")
    print(f"stencil detuning delta = {info['delta']:.2e} "
          "(keeps the operator away from resonances)\n")

    b = random_rhs(nblocks, block_size, nrhs, seed=1)

    fact = BandedARDFactorization(matrix, nranks=nranks,
                                  cost_model=PAPER_ERA_MODEL)
    x = fact.solve(b)
    residual = matrix.residual(x, b)
    factor_vt = fact.factor_result.virtual_time
    solve_vt = fact.last_solve_result.virtual_time
    print(f"factor phase: {factor_vt:.3e} modelled s   "
          f"solve phase (all {nrhs} RHS): {solve_vt:.3e} modelled s")
    print(f"residual: {residual:.2e}")

    # Verify against dense LAPACK.
    dense = matrix.to_dense()
    xref = np.linalg.solve(
        dense, b.reshape(nblocks * block_size, nrhs)
    ).reshape(nblocks, block_size, nrhs)
    err = np.max(np.abs(x - xref)) / np.max(np.abs(xref))
    print(f"max relative deviation from dense LAPACK: {err:.2e}")
    assert err < 1e-9

    # The acceleration story, banded edition.
    naive_vt = nrhs * (factor_vt + solve_vt / nrhs)
    print(f"\nre-factoring per RHS would cost ~{naive_vt:.3e} modelled s "
          f"-> the factor/solve split wins ~"
          f"{naive_vt / (factor_vt + solve_vt):.0f}x at R={nrhs}.")


if __name__ == "__main__":
    main()
