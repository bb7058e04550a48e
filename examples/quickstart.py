#!/usr/bin/env python3
"""Quickstart: solve a block tridiagonal system with every method.

Demonstrates the 60-second tour of the library:

1. generate a block tridiagonal system,
2. solve it with the accelerated recursive doubling (ARD) solver on a
   few simulated ranks,
3. cross-check against the sequential baselines and a dense reference,
4. reuse an ARD factorization across several right-hand-side batches,
5. read the modelled parallel timings the simulation produces.

Run:  python examples/quickstart.py
"""

from repro import factor, solve
from repro.core.diagnostics import diagnose
from repro.workloads import helmholtz_block_system, random_rhs


def main() -> None:
    # A 64-block system with 4x4 blocks (256 unknowns), in the
    # bounded-growth regime where recursive doubling is accurate at any
    # length (see DESIGN.md "Non-goals / caveats").
    nblocks, block_size, nrhs = 64, 4, 8
    matrix, info = helmholtz_block_system(nblocks, block_size)
    print(f"system: {info['name']}, N={nblocks} blocks of M={block_size} "
          f"({nblocks * block_size} unknowns), R={nrhs} right-hand sides")

    checks = diagnose(matrix, warn=False)
    print(f"diagnostics: transfer growth {checks.growth:.2f} "
          f"(stable={checks.rd_stable}), min U_i rcond "
          f"{checks.min_superdiag_rcond:.2f}\n")

    b = random_rhs(nblocks, block_size, nrhs, seed=0)

    # --- one-shot solves with every method -----------------------------
    for method in ("ard", "rd", "thomas", "cyclic", "dense"):
        x, solve_info = solve(matrix, b, method=method, nranks=4,
                              return_info=True)
        vt = (f"{solve_info.virtual_time:.3e}s modelled"
              if solve_info.virtual_time is not None else "sequential")
        print(f"  {method:7s} residual={solve_info.residual:.2e}  [{vt}]")

    # --- factor once, solve many (the paper's workflow) -----------------
    print("\nfactor once / solve many with ARD on 4 simulated ranks:")
    fact = factor(matrix, method="ard", nranks=4)
    print(f"  factor phase: {fact.factor_virtual_time:.3e} modelled seconds")
    for batch in range(3):
        b_new = random_rhs(nblocks, block_size, nrhs, seed=batch + 1)
        x = fact.solve(b_new)
        assert matrix.residual(x, b_new) < 1e-9
        print(f"  solve batch {batch}: "
              f"{fact.last_solve_result.virtual_time:.3e} modelled seconds "
              f"(residual {matrix.residual(x, b_new):.1e})")
    print("\nEach extra batch pays only the cheap matrix-vector solve "
          "phase - that is the paper's O(R) acceleration.")


if __name__ == "__main__":
    main()
