"""SecDDR reproduction library.

A from-scratch Python reproduction of *SecDDR: Enabling Low-Cost Secure
Memories by Protecting the DDR Interface* (DSN 2023), including every
substrate its evaluation depends on:

* :mod:`repro.core` -- the SecDDR protocol itself (E-MACs, encrypted eWCRC,
  transaction counters, attestation) as a bit-accurate functional model.
* :mod:`repro.crypto` -- AES-128, CTR/XTS modes, CMAC, CRC-16, key exchange.
* :mod:`repro.dram`, :mod:`repro.controller` -- DDR4/DDR5 DRAM, DIMM topology
  and a FR-FCFS memory controller.
* :mod:`repro.cache`, :mod:`repro.cpu` -- caches, metadata cache, and the
  trace-driven multi-core model.
* :mod:`repro.secure` -- timing models of every evaluated configuration
  (integrity trees, SecDDR, InvisiMem, encrypt-only baselines).
* :mod:`repro.attacks` -- replay / address-corruption / write-drop /
  DIMM-substitution attack scenarios and detection campaigns.
* :mod:`repro.workloads` -- SPEC-2017-like and GAPBS-like synthetic traces.
* :mod:`repro.traces` -- captured traces as first-class workloads: the
  versioned columnar on-disk store, external-format importers/exporters,
  bounded-memory streaming views with lazy transforms, and the multi-tenant
  mixer (``repro trace``, see ``docs/traces.md``).
* :mod:`repro.sim` -- the experiment runner behind the paper's figures.
* :mod:`repro.analysis` -- power/area/security analytical models (Table II,
  Sections III-B/C and V-B).
* :mod:`repro.figures` -- one :class:`~repro.figures.FigureSpec` per paper
  figure/table and the ``repro reproduce`` artifact pipeline (deduplicated
  cached parallel pass, CSV/JSON artifacts, combined ``REPORT.md``).
* :mod:`repro.fuzz` -- property-based adversarial fuzzing of the security
  claims: seeded scenario generation, security oracles with a golden shadow
  memory, cached parallel campaigns, scenario shrinking, JSONL corpora
  (``repro fuzz``, see ``docs/fuzzing.md``).
* :mod:`repro.bench` -- continuous evaluation: registered
  :class:`~repro.bench.BenchSpec` throughput, overhead and detection-rate
  benches, metric-level regression policies, file-locked
  ``BENCH_<date>.json`` records and the ``repro bench --check`` CI gate
  (see ``docs/benchmarking.md``).
* :mod:`repro.obs` -- unified observability: labelled metrics with exact
  cross-process aggregation (``GET /metrics`` Prometheus exposition),
  hierarchical ``perf_counter`` spans exportable to Chrome trace format
  (``--trace-out`` / ``repro obs export-trace``), windowed simulation
  timelines rendered as a self-contained HTML dashboard (``--timeline`` /
  ``GET /jobs/{id}/timeline`` / ``GET /metrics/stream``), and structured
  JSON logging (``--log-level`` / ``--log-json``; see
  ``docs/observability.md``).

Reproduce the whole paper (see ``docs/reproducing-the-paper.md``)::

    $ repro reproduce --out artifact -j 4

and fuzz its security claims::

    $ repro fuzz --seed 7 --budget 200 -j 4 --corpus fuzz-corpus

Quick start in Python (the documented entry point is
:class:`repro.api.Session`)::

    from repro.api import Session
    session = Session()
    result = (
        session.configs("integrity_tree_64", "secddr_xts", "encrypt_only_xts")
        .workloads("mcf", "pr", "lbm")
        .compare()
    )
    print(result.format_table())

The functional layer (``run_comparison``/``run_simulation``) stays available
for scripted use and accepts configuration/workload *values* as well as
registered names.
"""

from repro.api import Session
from repro.core import FunctionalMemorySystem, SecDDRConfig
from repro.errors import (
    RegistryLookupError,
    UnknownConfigurationError,
    UnknownFigureError,
    UnknownWorkloadError,
)
from repro.figures import FigureSpec, figure_names, reproduce, write_artifacts
from repro.secure import (
    SystemConfiguration,
    build_configuration,
    configuration_names,
    register_configuration,
    register_mechanism,
    resolve_configuration,
)
from repro.sim import ExperimentConfig, run_comparison, run_simulation
from repro.workloads import (
    build_workload,
    register_trace,
    register_workload,
    workload_names,
)

__version__ = "1.9.0"

__all__ = [
    "Session",
    "FigureSpec",
    "FunctionalMemorySystem",
    "SecDDRConfig",
    "RegistryLookupError",
    "UnknownConfigurationError",
    "UnknownFigureError",
    "UnknownWorkloadError",
    "figure_names",
    "reproduce",
    "write_artifacts",
    "SystemConfiguration",
    "build_configuration",
    "configuration_names",
    "register_configuration",
    "register_mechanism",
    "resolve_configuration",
    "ExperimentConfig",
    "run_comparison",
    "run_simulation",
    "build_workload",
    "register_trace",
    "register_workload",
    "workload_names",
    "__version__",
]
