"""Persistence for factorizations and matrices.

The factor-once / solve-many workflow often spans *runs*, not just
calls: a production code factors the operator once and reuses it across
restarts.  These helpers save and load the library's factorization
objects (ARD, SPIKE, Thomas, cyclic reduction) and
:class:`~repro.linalg.blocktridiag.BlockTridiagonalMatrix` instances
with a small versioned envelope so stale files fail loudly instead of
mysteriously.

Format: a pickle stream prefixed by a header dict recording the library
version, the payload class, and problem dimensions.  Like all pickle
formats, load only files you trust.
"""

from __future__ import annotations

import pathlib
import pickle
from typing import Any

from . import __version__
from .exceptions import ReproError

__all__ = ["save", "load", "write_stats_json", "FormatError",
           "SAVABLE_CLASSES", "STATS_SCHEMA_VERSION"]

_MAGIC = "repro-factorization-v1"

#: Version stamped into every ``*.stats.json`` document; bump when the
#: document shape changes incompatibly so downstream consumers can
#: dispatch on it.
STATS_SCHEMA_VERSION = 1


class FormatError(ReproError, ValueError):
    """The file is not a repro save file or is incompatible."""


def _savable_classes() -> dict[str, type]:
    from .banded.matrix import BlockBandedMatrix
    from .banded.solver import BandedARDFactorization
    from .core.ard import ARDFactorization
    from .core.cyclic_reduction import CyclicReductionFactorization
    from .core.spike import SpikeFactorization
    from .core.thomas import ThomasFactorization
    from .linalg.blocktridiag import BlockTridiagonalMatrix

    return {
        cls.__name__: cls
        for cls in (
            ARDFactorization,
            SpikeFactorization,
            ThomasFactorization,
            CyclicReductionFactorization,
            BlockTridiagonalMatrix,
            BandedARDFactorization,
            BlockBandedMatrix,
        )
    }


#: Names of the classes :func:`save` accepts.
SAVABLE_CLASSES = tuple(sorted(
    ("ARDFactorization", "SpikeFactorization", "ThomasFactorization",
     "CyclicReductionFactorization", "BlockTridiagonalMatrix",
     "BandedARDFactorization", "BlockBandedMatrix")
))


def save(path: str | pathlib.Path, obj: Any) -> pathlib.Path:
    """Save a factorization or matrix to ``path``.

    Returns the resolved path.  Raises
    :class:`~repro.exceptions.ReproError` for unsupported objects.
    """
    classes = _savable_classes()
    name = type(obj).__name__
    if name not in classes or not isinstance(obj, classes[name]):
        raise ReproError(
            f"cannot save object of type {name}; supported: {SAVABLE_CLASSES}"
        )
    header = {
        "magic": _MAGIC,
        "library_version": __version__,
        "class": name,
        "nblocks": getattr(obj, "nblocks", None),
        "block_size": getattr(obj, "block_size", None),
    }
    path = pathlib.Path(path)
    with open(path, "wb") as fh:
        pickle.dump(header, fh, protocol=pickle.HIGHEST_PROTOCOL)
        pickle.dump(obj, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return path


def _json_default(obj: Any):
    """Coerce numpy scalars/arrays for ``json.dumps``."""
    import numpy as np

    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(
        f"object of type {type(obj).__name__} is not JSON serializable"
    )


def write_stats_json(path: str | pathlib.Path, obj: Any,
                     extra: dict | None = None) -> pathlib.Path:
    """Write a statistics document as human-diffable JSON.

    ``obj`` may be a plain dict or any object exposing
    ``to_stats_dict()`` / ``to_dict()`` (e.g.
    :class:`~repro.harness.experiments.ExperimentResult`,
    :class:`~repro.comm.stats.SimulationResult`); ``extra`` entries are
    merged on top.  Numpy scalars and arrays are converted.  The
    document is stamped with ``"schema_version"``
    (:data:`STATS_SCHEMA_VERSION`) and a ``"written_at"`` ISO-8601 UTC
    timestamp unless the caller already provided them.  The harness
    writes one ``<exp_id>.stats.json`` per experiment next to its CSV
    output.  Returns the path.
    """
    import datetime
    import json

    if hasattr(obj, "to_stats_dict"):
        obj = obj.to_stats_dict()
    elif hasattr(obj, "to_dict"):
        obj = obj.to_dict()
    if extra:
        obj = {**obj, **extra}
    if isinstance(obj, dict):
        obj = dict(obj)  # never mutate the caller's document
        obj.setdefault("schema_version", STATS_SCHEMA_VERSION)
        obj.setdefault(
            "written_at",
            datetime.datetime.now(datetime.timezone.utc).isoformat(),
        )
    path = pathlib.Path(path)
    path.write_text(json.dumps(obj, indent=2, default=_json_default) + "\n")
    return path


def load(path: str | pathlib.Path, expect: str | None = None) -> Any:
    """Load a previously saved object.

    Parameters
    ----------
    path:
        File written by :func:`save`.
    expect:
        Optional class name to require (e.g. ``"ARDFactorization"``);
        a mismatch raises :class:`FormatError` before unpickling the
        payload.

    Warning
    -------
    Uses :mod:`pickle`: only load files you trust.
    """
    path = pathlib.Path(path)
    with open(path, "rb") as fh:
        try:
            header = pickle.load(fh)
        except Exception as exc:
            raise FormatError(f"{path} is not a repro save file: {exc}") from exc
        if not isinstance(header, dict) or header.get("magic") != _MAGIC:
            raise FormatError(f"{path} is not a repro save file (bad header)")
        name = header.get("class")
        classes = _savable_classes()
        if name not in classes:
            raise FormatError(f"{path} contains unknown class {name!r}")
        if expect is not None and name != expect:
            raise FormatError(
                f"{path} contains {name}, expected {expect}"
            )
        obj = pickle.load(fh)
    if not isinstance(obj, classes[name]):
        raise FormatError(
            f"{path} payload is {type(obj).__name__}, header said {name}"
        )
    return obj
