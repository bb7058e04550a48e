"""Tests for repro.config."""

import dataclasses
import threading

import numpy as np
import pytest

from repro.config import ReproConfig, config_context, get_config, install_config, set_config
from repro.exceptions import ConfigError


class TestReproConfig:
    def test_defaults(self):
        cfg = ReproConfig()
        assert cfg.dtype == np.float64
        assert cfg.flop_counting is False
        assert 0 < cfg.singularity_rcond < 1

    def test_dtype_normalized(self):
        cfg = ReproConfig(dtype=np.float32)
        assert cfg.dtype == np.dtype(np.float32)

    def test_complex_dtype_allowed(self):
        cfg = ReproConfig(dtype=np.complex128)
        assert cfg.dtype.kind == "c"

    def test_integer_dtype_rejected(self):
        with pytest.raises(ConfigError):
            ReproConfig(dtype=np.int32)

    def test_bad_rcond_rejected(self):
        with pytest.raises(ConfigError):
            ReproConfig(singularity_rcond=0.0)
        with pytest.raises(ConfigError):
            ReproConfig(singularity_rcond=1.5)

    def test_bad_growth_threshold_rejected(self):
        with pytest.raises(ConfigError):
            ReproConfig(growth_warn_threshold=0.5)

    def test_frozen(self):
        cfg = ReproConfig()
        with pytest.raises(Exception):
            cfg.flop_counting = True

    def test_kernel_defaults(self):
        """No field chooses a kernel (docs/KERNELS.md): the one kernel
        setting is the singularity threshold both block kernels share."""
        cfg = ReproConfig()
        assert cfg.singularity_rcond == 1e-13
        assert {f.name for f in dataclasses.fields(ReproConfig)} == {
            "dtype", "singularity_rcond", "flop_counting",
            "growth_warn_threshold", "comm_backend", "flightrec",
            "flightrec_capacity", "incident_dir", "incident_retention"}


class TestGlobalConfig:
    def test_get_returns_default(self):
        assert isinstance(get_config(), ReproConfig)

    def test_set_and_restore(self):
        original = get_config()
        try:
            new = set_config(flop_counting=True)
            assert new.flop_counting is True
            assert get_config() is new
        finally:
            install_config(original)

    def test_set_unknown_field(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            set_config(nonexistent=1)

    def test_context_restores(self):
        before = get_config()
        with config_context(flop_counting=True) as cfg:
            assert cfg.flop_counting is True
            assert get_config().flop_counting is True
        assert get_config() is before

    def test_context_restores_on_error(self):
        before = get_config()
        with pytest.raises(RuntimeError):
            with config_context(flop_counting=True):
                raise RuntimeError("boom")
        assert get_config() is before

    def test_thread_isolation(self):
        seen = {}

        def other():
            seen["flag"] = get_config().flop_counting

        with config_context(flop_counting=True):
            t = threading.Thread(target=other)  # repro: noqa[RC103]
            t.start()
            t.join()
        assert seen["flag"] is False

    def test_install_config_type_check(self):
        with pytest.raises(ConfigError):
            install_config("not a config")

    def test_install_config_roundtrip(self):
        original = get_config()
        replacement = ReproConfig(flop_counting=True)
        install_config(replacement)
        try:
            assert get_config() is replacement
        finally:
            install_config(original)
