#!/usr/bin/env python3
"""Solver selection guide: which method for which matrix?

Sweeps the library's workload generators through every factorizing
solver and prints accuracy plus modelled time, together with the
diagnostics that predict the outcome — a practical map of each method's
stability domain:

- **ARD/RD** (recursive doubling): fastest distributed methods, but only
  accurate while the transfer-product growth is bounded (oscillatory /
  Helmholtz-like systems). Error ~ machine-eps x growth.
- **SPIKE**: distributed and backward stable for block diagonally
  dominant systems — exactly the regime that breaks recursive doubling.
- **Thomas / cyclic reduction**: sequential fallbacks, stable for
  dominant systems of any length.

Run:  python examples/solver_selection.py
"""

from repro import factor
from repro.core.diagnostics import diagnose
from repro.exceptions import ReproError
from repro.perfmodel import PAPER_ERA_MODEL
from repro.util.tables import render_table
from repro.workloads import (
    absorbing_helmholtz_system,
    heat_implicit_system,
    helmholtz_block_system,
    multigroup_diffusion_system,
    poisson_block_system,
    random_rhs,
)


def main() -> None:
    n, m, p, r = 96, 6, 8, 16
    workloads = [
        ("helmholtz (oscillatory)", helmholtz_block_system, {}),
        ("absorbing helmholtz", absorbing_helmholtz_system, {}),
        ("poisson (dominant)", poisson_block_system, {}),
        ("implicit heat (dominant)", heat_implicit_system, {}),
        ("multigroup (weakly dom.)", multigroup_diffusion_system,
         {"seed": 0, "coupling": 2.0, "absorption": 0.1}),
    ]
    rows = []
    for name, gen, kwargs in workloads:
        matrix, _ = gen(n, m, **kwargs)
        checks = diagnose(matrix, warn=False)
        b = random_rhs(n, m, r, seed=1).astype(matrix.dtype)
        for method in ("ard", "spike", "thomas"):
            try:
                fact = factor(matrix, method=method, nranks=p,
                              cost_model=PAPER_ERA_MODEL)
                x = fact.solve(b)
                residual = matrix.residual(x, b)
                verdict = "ok" if residual < 1e-8 else "INACCURATE"
            except ReproError as exc:
                residual, verdict = float("nan"), type(exc).__name__
            rows.append([name, f"{checks.growth:.1e}", method,
                         residual, verdict])
    print(render_table(
        ["workload", "growth", "method", "residual", "verdict"], rows,
        title=f"N={n}, M={m}, P={p}, R={r}  "
              "(growth = transfer-product growth from diagnose())",
    ))
    print(
        "\nRule of thumb: growth near 1 -> use ARD (fastest, distributed);\n"
        "growth large -> use SPIKE (distributed) or Thomas (sequential).\n"
        "repro.core.diagnostics.diagnose() measures growth for you."
    )


if __name__ == "__main__":
    main()
