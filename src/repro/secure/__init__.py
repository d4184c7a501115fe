"""Secure-memory mechanisms: encryption engines, integrity trees, SecDDR, InvisiMem.

This package contains the *timing* models of every secure-memory
configuration the paper evaluates (Section IV-B), all built on the same
substrate (memory controller, metadata cache, DRAM channel):

* :mod:`repro.secure.base` -- the common ``SecureMemorySystem`` machinery:
  metadata address-space layout, metadata-cache filtering, and the
  read/write expansion pipeline that executes each mechanism's
  ``MetadataPath`` (the one description both simulation engines read).
* :mod:`repro.secure.encryption` -- counter-mode and AES-XTS encryption
  engine models (counter storage, counter-cache behaviour, critical-path
  latencies).
* :mod:`repro.secure.mac_store` -- where per-line MACs live (ECC chips for
  free transfer, or dedicated in-memory lines for hash-tree designs).
* :mod:`repro.secure.integrity_tree` -- k-ary counter trees (VAULT/Morphable
  style) and hash-based Merkle trees, with traversal through the metadata
  cache.
* :mod:`repro.secure.secddr_model` -- SecDDR: E-MAC protected bus, encrypted
  eWCRC (longer write bursts), no tree.
* :mod:`repro.secure.invisimem` -- the InvisiMem-style authenticated-channel
  baseline (memory-side MAC latency; optional derated channel frequency).
* :mod:`repro.secure.configs` -- named factory functions for every
  configuration that appears in Figures 6, 8, 10 and 12.
"""

from repro.secure.base import AccessBreakdown, SecureMemorySystem, MetadataLayout, MetadataPath
from repro.secure.encryption import (
    EncryptionMode,
    CounterModeEncryption,
    XTSEncryption,
)
from repro.secure.mac_store import MacPlacement, MacStore
from repro.secure.integrity_tree import IntegrityTree, TreeGeometry, hash_merkle_tree_geometry
from repro.secure.baseline import EncryptOnlySystem, TdxBaselineSystem
from repro.secure.secddr_model import SecDDRSystem
from repro.secure.invisimem import InvisiMemSystem
from repro.secure.configs import (
    SystemConfiguration,
    ConfigurationRegistry,
    CONFIGURATIONS,
    REGISTRY,
    build_configuration,
    configuration_names,
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
    "CounterModeEncryption",
    "XTSEncryption",
    "MacPlacement",
    "MacStore",
    "IntegrityTree",
    "TreeGeometry",
    "hash_merkle_tree_geometry",
    "EncryptOnlySystem",
    "TdxBaselineSystem",
    "SecDDRSystem",
    "InvisiMemSystem",
    "SystemConfiguration",
    "ConfigurationRegistry",
    "CONFIGURATIONS",
    "REGISTRY",
    "build_configuration",
    "configuration_names",
    "register_configuration",
    "register_mechanism",
    "resolve_configuration",
]
