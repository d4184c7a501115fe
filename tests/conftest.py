"""Shared fixtures for the SecDDR reproduction test suite."""

from __future__ import annotations

import pytest

from repro.core import FunctionalMemorySystem, SecDDRConfig
from repro.secure import configs as configs_module
from repro.workloads import registry as workloads_module


@pytest.fixture
def secddr_memory() -> FunctionalMemorySystem:
    """A fully provisioned functional SecDDR memory system."""
    return FunctionalMemorySystem(config=SecDDRConfig(), initial_counter=0)


@pytest.fixture
def baseline_memory() -> FunctionalMemorySystem:
    """A TDX-like functional system: MACs but no replay protection."""
    return FunctionalMemorySystem(config=SecDDRConfig.baseline_no_rap(), initial_counter=0)


@pytest.fixture
def sample_line() -> bytes:
    """A deterministic 64-byte cache line."""
    return bytes(range(64))


@pytest.fixture
def clean_registries():
    """Roll back any configuration/mechanism/workload registrations."""
    config_names = set(configs_module.CONFIGURATIONS)
    mechanism_names = set(configs_module._MECHANISM_BUILDERS)
    token_names = set(configs_module._MECHANISM_CACHE_TOKENS)
    workload_names = set(workloads_module.ALL_WORKLOADS)
    yield
    for name in set(configs_module.CONFIGURATIONS) - config_names:
        del configs_module.CONFIGURATIONS[name]
    for name in set(configs_module._MECHANISM_BUILDERS) - mechanism_names:
        del configs_module._MECHANISM_BUILDERS[name]
    for name in set(configs_module._MECHANISM_CACHE_TOKENS) - token_names:
        del configs_module._MECHANISM_CACHE_TOKENS[name]
    for name in set(workloads_module.ALL_WORKLOADS) - workload_names:
        del workloads_module.ALL_WORKLOADS[name]
