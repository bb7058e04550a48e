"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.workloads import helmholtz_block_system, random_rhs


@pytest.fixture(autouse=True)
def _isolated_incident_dir(tmp_path, monkeypatch):
    """Redirect incident-bundle capture away from ``results/incidents``.

    Any test that trips a runtime failure path would otherwise litter
    the repo's real incident store (and mutate its retention state);
    the env var is read at capture time, so pointing it at ``tmp_path``
    isolates every test.  Tests that assert on bundles read the same
    directory.
    """
    monkeypatch.setenv("REPRO_INCIDENT_DIR", str(tmp_path / "incidents"))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_system():
    """A well-conditioned 12x3 block system plus a 2-RHS right-hand side."""
    matrix, _ = helmholtz_block_system(12, 3)
    b = random_rhs(12, 3, nrhs=2, seed=0)
    return matrix, b


def invertible_block(rng: np.random.Generator, m: int) -> np.ndarray:
    """A random block guaranteed comfortably invertible."""
    a = rng.standard_normal((m, m))
    return a + m * np.eye(m)


def stored_arrays(obj):
    """Every array ``obj`` holds: through dataclass fields, ``__slots__``
    and tuples or lists."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from stored_arrays(item)
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from stored_arrays(getattr(obj, field.name))
    elif hasattr(obj, "__slots__"):
        for name in obj.__slots__:
            yield from stored_arrays(getattr(obj, name, None))
