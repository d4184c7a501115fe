"""Shared fixtures for the SecDDR reproduction test suite."""

from __future__ import annotations

import os
from typing import Callable, Dict, List

import pytest

from repro.core import FunctionalMemorySystem, SecDDRConfig
from repro.secure import configs as configs_module
from repro.workloads import registry as workloads_module


@pytest.fixture(scope="session")
def provisioned() -> Callable[..., FunctionalMemorySystem]:
    """``provisioned(config)``: a copy of the session's attested system for ``config``.

    Each configuration is attested once per session (counters at 0); every
    call returns an independent ``copy()``, so tests never share state.
    Tests about construction-time attestation build their own systems.
    """
    systems: Dict[SecDDRConfig, FunctionalMemorySystem] = {}

    def copy_of(config: SecDDRConfig = SecDDRConfig()) -> FunctionalMemorySystem:
        if config not in systems:
            systems[config] = FunctionalMemorySystem(config=config, initial_counter=0)
        return systems[config].copy()

    return copy_of


@pytest.fixture
def provisionings(monkeypatch) -> List[SecDDRConfig]:
    """The config of every ``FunctionalMemorySystem`` built while the test runs.

    Each construction attests.  A construction in any other process (a pool
    worker) raises, since workers must receive their system with the job.
    """
    configs: List[SecDDRConfig] = []
    build = FunctionalMemorySystem.__init__
    parent = os.getpid()

    def counting_init(self, *args, **kwargs):
        assert os.getpid() == parent, "a pool worker attested its own system"
        build(self, *args, **kwargs)
        configs.append(self.config)

    monkeypatch.setattr(FunctionalMemorySystem, "__init__", counting_init)
    return configs


@pytest.fixture
def secddr_memory(provisioned) -> FunctionalMemorySystem:
    """A fully provisioned functional SecDDR memory system."""
    return provisioned(SecDDRConfig())


@pytest.fixture
def baseline_memory(provisioned) -> FunctionalMemorySystem:
    """A TDX-like functional system: MACs but no replay protection."""
    return provisioned(SecDDRConfig.baseline_no_rap())


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
