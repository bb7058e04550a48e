"""Parallel prefix (scan) framework over semigroups."""

from .affine import AffinePair, affine_compose
from .scan import (
    DIST_SCANS,
    dist_scan_blelloch,
    dist_scan_kogge_stone,
    dist_scan_pipeline,
    seq_exclusive_scan,
    seq_inclusive_scan,
)
from .semigroup import Monoid, check_associative

__all__ = [
    "AffinePair",
    "affine_compose",
    "Monoid",
    "check_associative",
    "DIST_SCANS",
    "dist_scan_blelloch",
    "dist_scan_kogge_stone",
    "dist_scan_pipeline",
    "seq_exclusive_scan",
    "seq_inclusive_scan",
]
