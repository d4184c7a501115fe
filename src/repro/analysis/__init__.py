"""Analytical models: area, power, and the paper's security arithmetic.

* :mod:`repro.analysis.power` -- AES-engine power and per-rank DIMM power
  overhead (reproduces Table II).
* :mod:`repro.analysis.area` -- DRAM-die area overhead of the SecDDR logic
  and the attestation units (Section V-B).
* :mod:`repro.analysis.security_math` -- the eWCRC brute-force analysis, the
  CCCA natural-error interval, and the transaction-counter overflow horizon
  (Sections III-B and III-C).
"""

from repro.analysis.power import (
    AesEngineModel,
    DimmPowerModel,
    PowerOverheadRow,
    table2_power_overheads,
)
from repro.analysis.area import AreaModel, secddr_area_overhead_mm2
from repro.analysis.security_math import (
    ccca_error_interval_days,
    ewcrc_bruteforce_years,
    counter_overflow_years,
    dimm_substitution_match_probability,
    SecurityAnalysis,
)
from repro.analysis.scalability import (
    ScalabilityPoint,
    scalability_sweep,
    secddr_scalability,
    tree_scalability,
)

__all__ = [
    "AesEngineModel",
    "DimmPowerModel",
    "PowerOverheadRow",
    "table2_power_overheads",
    "AreaModel",
    "secddr_area_overhead_mm2",
    "ccca_error_interval_days",
    "ewcrc_bruteforce_years",
    "counter_overflow_years",
    "dimm_substitution_match_probability",
    "SecurityAnalysis",
    "ScalabilityPoint",
    "scalability_sweep",
    "secddr_scalability",
    "tree_scalability",
]
