"""Secure-memory timing models: every configuration the paper evaluates.

Each configuration of the evaluation (Section IV-B) -- the TDX-like
baseline, the encrypt-only upper bounds, the counter and hash integrity
trees, SecDDR and InvisiMem -- is the same stock system on the same
substrate (memory controller, metadata cache, DRAM channel); what sets a
mechanism apart is one frozen ``MetadataPath``:

* :mod:`repro.secure.base` -- ``SecureMemorySystem``: metadata address-space
  layout, metadata-cache filtering, and the read/write expansion pipeline
  that executes a ``MetadataPath`` (the one description both simulation
  engines read).
* :mod:`repro.secure.integrity_tree` -- k-ary counter-tree and hash Merkle
  tree geometry and node addressing, walked through the metadata cache.
* :mod:`repro.secure.configs` -- the named configurations of Figures 6, 8,
  10 and 12, :func:`~repro.secure.configs.metadata_path` (each built-in
  mechanism's path under each encryption mode) and the factory that builds
  a system for any configuration.

SecDDR's timing cost is its controller's longer eWCRC write burst; the
bit-accurate SecDDR protocol lives in :mod:`repro.core`.
"""

from repro.secure.base import AccessBreakdown, SecureMemorySystem, MetadataLayout, MetadataPath
from repro.secure.integrity_tree import IntegrityTree, TreeGeometry, hash_merkle_tree_geometry
from repro.secure.configs import (
    EncryptionMode,
    SystemConfiguration,
    ConfigurationRegistry,
    CONFIGURATIONS,
    REGISTRY,
    build_configuration,
    configuration_names,
    metadata_path,
    register_configuration,
    register_mechanism,
    resolve_configuration,
)

__all__ = [
    "AccessBreakdown",
    "SecureMemorySystem",
    "MetadataLayout",
    "MetadataPath",
    "EncryptionMode",
    "IntegrityTree",
    "TreeGeometry",
    "hash_merkle_tree_geometry",
    "SystemConfiguration",
    "ConfigurationRegistry",
    "CONFIGURATIONS",
    "REGISTRY",
    "build_configuration",
    "configuration_names",
    "metadata_path",
    "register_configuration",
    "register_mechanism",
    "resolve_configuration",
]
