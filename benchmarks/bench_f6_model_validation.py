"""recon-F6 — analytic model vs simulated virtual time (parity data)."""

import numpy as np
from conftest import run_and_save

#: Ceiling on ``perfmodel.model_error``, the median |log ratio| of
#: predicted over simulated time across recon-F6's points.  Both sides
#: are modelled, so the value is exact for a given tree (0.3466 at smoke
#: scale, 0.2011 at full).  0.405 is 0.3527, the smoke value of an
#: earlier model, plus 15%; scaling every predicted time by 1.1 reads
#: 0.442 and fails it.
MODEL_ERROR_CEILING = 0.405


def test_f6_model_parity(benchmark, results_dir):
    result = benchmark.pedantic(
        run_and_save, args=("recon-F6", results_dir), rounds=1, iterations=1
    )
    print()
    print(result.render())
    ratios = result.column("ratio")
    # Every point within a factor of ~2.5 (the model serializes phases the
    # simulator may overlap) and trends preserved per method.
    for ratio in ratios:
        assert 0.35 < ratio < 2.5
    # A calibration or model change that degrades predicted-vs-simulated
    # parity as a whole raises the median even while every point stays
    # inside the per-point band.
    model_error = float(np.median([abs(np.log(r)) for r in ratios]))
    print(f"perfmodel.model_error = {model_error:.4f}")
    assert model_error <= MODEL_ERROR_CEILING, (
        f"perfmodel.model_error {model_error:.4f} exceeds the "
        f"{MODEL_ERROR_CEILING} ceiling")
