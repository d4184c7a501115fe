"""The documented entry point: a fluent session over the experiment stack.

:class:`Session` bundles the knobs every experiment shares (parallelism,
result cache, experiment budget, normalization baseline, progress hook) and
exposes the library's capabilities as a small fluent surface::

    from repro.api import Session

    session = Session(cache_dir="~/.cache/repro/sim", jobs=4)
    wide_tree = session.derive("integrity_tree_64", tree_arity=32,
                               counters_per_line=32)
    result = (
        session.configs("secddr_ctr", wide_tree)
        .workloads("mcf", "pr")
        .compare()
    )
    print(result.format_table())

Everything a :class:`Session` accepts is a *value*, not just a name:
configurations may be registered names or any
:class:`~repro.secure.configs.SystemConfiguration` (e.g. produced by
:meth:`Session.derive`), and workloads may be registered names or pre-built
:class:`~repro.cpu.trace.MemoryTrace` instances.  Custom mechanisms and
workloads plug in through :meth:`Session.register_mechanism`,
:meth:`Session.register_workload` and :meth:`Session.register_trace`; the
on-disk result cache keys off the full configuration spec and the workload's
cache token, so derived and custom inputs cache correctly by construction.

One caveat for ``jobs > 1``: worker processes resolve registered names from
their own copy of the registries.  With the ``fork`` start method (the Linux
default) they inherit every registration automatically; on platforms whose
``multiprocessing`` start method is ``spawn`` (macOS/Windows defaults),
perform registrations at module top level — workers re-import the main
module, so top-level registrations are re-applied — or run with ``jobs=1``.
Derived configurations and pre-built traces are unaffected either way: they
travel inside the pickled job itself.
"""

from __future__ import annotations

from dataclasses import asdict, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.cpu.trace import MemoryTrace
from repro.secure.configs import (
    ConfigurationLike,
    MechanismFactory,
    SystemConfiguration,
)
from repro.secure.configs import REGISTRY as CONFIGURATION_REGISTRY
from repro.sim.engines import EngineLike, resolve_engine
from repro.sim.experiment import ExperimentConfig, run_comparison
from repro.sim.results import ComparisonResult, SimulationResult
from repro.sim.runner import (
    ParallelRunner,
    ProgressHook,
    ResultCache,
    SimulationJob,
    resolve_cache,
)
from repro.sim.sweep import arity_sweep, counter_packing_sweep
from repro.traces.streaming import ChunkedTrace
from repro.workloads.registry import REGISTRY as WORKLOAD_REGISTRY
from repro.workloads.registry import WorkloadBuilder, WorkloadSpec

__all__ = ["Session"]

#: A workload value a session accepts: a registry name, an in-memory trace,
#: or a streamed on-disk view (StreamingTrace / InterleavedTrace).
WorkloadLike = Union[str, MemoryTrace, ChunkedTrace]


class Session:
    """A configured experiment session: the fluent front door to the library.

    All mutating setters return ``self`` so calls chain; the terminal
    methods (:meth:`run`, :meth:`compare`, :meth:`arity_sweep`,
    :meth:`counter_packing_sweep`) execute through the shared parallel
    runner and result cache.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        cache: Optional[ResultCache] = None,
        experiment: Optional[ExperimentConfig] = None,
        baseline: ConfigurationLike = "tdx_baseline",
        progress: Optional[ProgressHook] = None,
        engine: Optional[EngineLike] = None,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.cache = resolve_cache(cache, cache_dir)
        self.experiment = experiment or ExperimentConfig()
        self.baseline = baseline
        self.progress = progress
        # Validates engine names eagerly (closest-match error on typos);
        # None keeps the library default.
        self.engine = engine if engine is None else resolve_engine(engine)
        self._configs: List[ConfigurationLike] = []
        self._workloads: List[WorkloadLike] = []

    # -- fluent selection ----------------------------------------------
    def configs(self, *configurations: ConfigurationLike) -> "Session":
        """Select configurations (names or specs); validates names eagerly."""
        for configuration in configurations:
            # Resolving now surfaces typos at selection time, with the
            # registry's closest-match error, instead of mid-run.
            CONFIGURATION_REGISTRY.resolve(configuration)
            self._configs.append(configuration)
        return self

    def workloads(self, *workloads: WorkloadLike) -> "Session":
        """Select workloads (names or traces); validates names eagerly."""
        for workload in workloads:
            if isinstance(workload, str):
                WORKLOAD_REGISTRY[workload]
            self._workloads.append(workload)
        return self

    def clear(self) -> "Session":
        """Forget the selected configurations and workloads (cache stays)."""
        self._configs = []
        self._workloads = []
        return self

    def with_experiment(self, experiment: Optional[ExperimentConfig] = None, **overrides) -> "Session":
        """Replace the experiment budget, or tweak fields of the current one."""
        base = experiment or self.experiment
        self.experiment = replace(base, **overrides) if overrides else base
        return self

    def with_baseline(self, baseline: ConfigurationLike) -> "Session":
        self.baseline = baseline
        return self

    def with_observability(
        self,
        metrics: bool = True,
        trace_out: Optional[Union[str, Path]] = None,
        timeline: Optional[Union[bool, int]] = None,
    ) -> "Session":
        """Install one observation for everything this session runs.

        The observation is process-wide, like the CLI flags, and built from
        this call's arguments alone: a second call replaces the first
        instead of adding to it.  ``metrics=True`` records into a fresh
        :class:`repro.obs.MetricsRegistry`; read it back with
        :meth:`metrics_summary` or :func:`repro.obs.render_prometheus`.
        ``trace_out`` additionally streams hierarchical spans as JSONL to
        the given path (convert with ``repro obs export-trace``); the tracer
        of the replaced observation is closed.
        ``timeline=True`` records a :class:`repro.obs.TimelineRecorder`
        capturing windowed per-run telemetry (an ``int`` sets the sampling
        window in accesses); read it back with :meth:`timeline_payload`.
        None of these change any simulation result or cache key --
        instrumentation is observational only.
        """
        from repro import obs

        if timeline is True:
            timeline = obs.DEFAULT_TIMELINE_WINDOW
        previous = obs.install(obs.Observation(
            registry=obs.MetricsRegistry() if metrics else obs.NULL_REGISTRY,
            tracer=obs.Tracer(trace_out) if trace_out is not None else None,
            timeline=obs.TimelineRecorder(window=timeline) if timeline else None,
        ))
        if previous.tracer is not None:
            previous.tracer.close()
        return self

    def metrics_summary(self) -> Dict[str, object]:
        """The installed registry's flat summary (empty when metrics are off)."""
        from repro import obs

        return obs.current().registry.summary()

    def timeline_payload(self) -> Optional[Dict[str, object]]:
        """The installed timeline recorder's payload (None when timelines are off).

        The payload is JSON-friendly (see
        :meth:`repro.obs.TimelineRecorder.to_payload`) and is the exact
        structure ``GET /jobs/{id}/timeline`` serves and the dashboard
        renders -- pass it to :func:`repro.obs.render_dashboard` for the
        self-contained HTML view.
        """
        from repro import obs

        recorder = obs.current().timeline
        if recorder is None:
            return None
        return recorder.to_payload()

    def with_engine(self, engine: Optional[EngineLike]) -> "Session":
        """Select the simulation engine for every run this session executes.

        ``"batch"`` (the library default) is the vectorized chunk engine,
        ``"reference"`` the per-access object model it reproduces bit for
        bit at roughly a tenth of the speed; ``None`` restores the default.
        Unknown names raise :class:`~repro.errors.UnknownEngineError`
        immediately.
        """
        self.engine = engine if engine is None else resolve_engine(engine)
        return self

    # -- composition ---------------------------------------------------
    def derive(self, base: ConfigurationLike, **overrides) -> SystemConfiguration:
        """A variant of ``base`` (name or spec) with ``overrides`` applied.

        The result is a plain value: pass it to :meth:`configs` (or anywhere
        a configuration is accepted) without registering it.
        """
        return CONFIGURATION_REGISTRY.resolve(base).derive(**overrides)

    def register_configuration(
        self, spec: SystemConfiguration, replace_existing: bool = False
    ) -> SystemConfiguration:
        """Add a named configuration to the registry (CLI/list visibility)."""
        return CONFIGURATION_REGISTRY.register(spec, replace_existing=replace_existing)

    def register_mechanism(
        self,
        name: str,
        factory: MechanismFactory,
        cache_token: str,
        replace_existing: bool = False,
    ) -> "Session":
        """Plug in a factory for a new ``mechanism`` string.

        Any :class:`SystemConfiguration` whose ``mechanism`` equals ``name``
        then builds through ``factory`` — see
        :meth:`repro.secure.configs.ConfigurationRegistry.register_mechanism`
        for the factory signature.  ``cache_token`` identifies the factory's
        behaviour in result-cache keys; bump it when the factory changes.
        """
        CONFIGURATION_REGISTRY.register_mechanism(
            name, factory, cache_token=cache_token, replace_existing=replace_existing
        )
        return self

    def register_workload(
        self,
        name: str,
        builder: WorkloadBuilder,
        cache_token: str,
        mpki: float = 0.0,
        write_fraction: float = 0.0,
        replace_existing: bool = False,
    ) -> WorkloadSpec:
        """Register a custom trace builder under ``name``.

        ``cache_token`` is mandatory: it identifies the builder's output in
        result-cache keys (bump it when the builder changes).
        """
        return WORKLOAD_REGISTRY.register(
            name,
            builder,
            cache_token=cache_token,
            mpki=mpki,
            write_fraction=write_fraction,
            replace_existing=replace_existing,
        )

    def register_trace(
        self,
        trace: MemoryTrace,
        name: Optional[str] = None,
        cache_token: Optional[str] = None,
        replace_existing: bool = False,
    ) -> WorkloadSpec:
        """Register a pre-built trace so it can be selected by name.

        Accepts in-memory :class:`~repro.cpu.trace.MemoryTrace`s and
        streamed :class:`~repro.traces.StreamingTrace` /
        :class:`~repro.traces.InterleavedTrace` views alike; streamed views
        register without materializing (their content-hash cache token
        comes from the on-disk header).
        """
        return WORKLOAD_REGISTRY.register_trace(
            trace, name=name, cache_token=cache_token, replace_existing=replace_existing
        )

    def traces(self):
        """The trace toolkit bound to this session (``repro.traces``).

        Import external traces into the on-disk store format, open stores
        as bounded-memory streamed workloads, export traces, compose
        multi-tenant mixes, and register any of it by name::

            big = session.traces().import_("mcf.csv", "mcf.trace", format="dramsim")
            session.traces().register(big, name="mcf_captured")
            session.configs("secddr_ctr").workloads("mcf_captured").compare()
        """
        from repro.traces.session import TraceToolkit

        return TraceToolkit(self)

    # -- execution -----------------------------------------------------
    def run(
        self, workload: WorkloadLike, configuration: ConfigurationLike
    ) -> SimulationResult:
        """Simulate one (workload, configuration) pair with this session's budget.

        Runs through the session's result cache, so repeated single-pair
        runs (and pairs already simulated by a comparison) are free.
        """
        job = SimulationJob(
            configuration=configuration,
            workload=workload,
            experiment=self.experiment,
            engine=self.engine,
        )
        runner = ParallelRunner(jobs=1, cache=self.cache, progress=self.progress)
        return runner.run([job])[0]

    def compare(
        self,
        configurations: Optional[Iterable[ConfigurationLike]] = None,
        workloads: Optional[Iterable[WorkloadLike]] = None,
        engine: Optional[EngineLike] = None,
    ) -> ComparisonResult:
        """Run the selected cross product, normalized to the session baseline.

        ``engine`` overrides the session engine for this comparison only.
        """
        config_list = list(configurations) if configurations is not None else self._configs
        workload_list = list(workloads) if workloads is not None else self._workloads
        if not config_list:
            raise ValueError("no configurations selected; call .configs(...) first")
        if not workload_list:
            raise ValueError("no workloads selected; call .workloads(...) first")
        return run_comparison(
            configurations=config_list,
            workloads=workload_list,
            baseline=self.baseline,
            experiment=self.experiment,
            jobs=self.jobs,
            cache=self.cache,
            progress=self.progress,
            engine=engine if engine is not None else self.engine,
        )

    def compare_spec(self, priority: int = 0) -> Dict[str, object]:
        """The experiment-service job spec equivalent to calling :meth:`compare`.

        Submitting the returned dict to ``POST /jobs`` (or
        :meth:`repro.server.client.Client.submit`) runs the same comparison
        the session would run in-process; the service's ``result.json`` is
        byte-identical to ``dump_payload(self.compare().to_payload())``.
        Workloads and the baseline must be registry names -- pre-built trace
        values live in this process and cannot travel in a JSON spec
        (register them on the server side instead).
        """
        from repro.server.schemas import configuration_payload

        if not self._configs or not self._workloads:
            raise ValueError(
                "select configurations and workloads first (.configs(...).workloads(...))"
            )
        for workload in self._workloads:
            if not isinstance(workload, str):
                raise ValueError(
                    "workload %r is a trace value; job specs carry registry "
                    "names only" % workload.name
                )
        if not isinstance(self.baseline, str):
            raise ValueError("the baseline must be a registry name in a job spec")
        spec: Dict[str, object] = {
            "kind": "compare",
            "configurations": [
                config if isinstance(config, str) else configuration_payload(config)
                for config in self._configs
            ],
            "workloads": list(self._workloads),
            "baseline": self.baseline,
            "experiment": asdict(self.experiment),
        }
        if self.engine is not None:
            spec["engine"] = self.engine.name
        if priority:
            spec["priority"] = int(priority)
        return spec

    def arity_sweep(self, arities: Iterable[int] = (8, 64, 128)) -> Dict[int, Dict[str, float]]:
        """Figure 8 (left): tree/SecDDR/encrypt-only gmean per tree arity.

        Non-canonical arities derive their configuration group on the fly.
        Uses the session's selected workloads, defaulting to the paper's
        memory-intensive subset.
        """
        return arity_sweep(
            workloads=self._sweep_workloads(),
            arities=arities,
            experiment=self.experiment,
            baseline=self._baseline_name(),
            jobs=self.jobs,
            cache=self.cache,
            progress=self.progress,
            engine=self.engine,
        )

    def counter_packing_sweep(
        self, packings: Iterable[int] = (8, 64, 128)
    ) -> Dict[int, Dict[str, float]]:
        """Figure 8 (right): SecDDR/encrypt-only gmean per counters-per-line."""
        return counter_packing_sweep(
            workloads=self._sweep_workloads(),
            packings=packings,
            experiment=self.experiment,
            baseline=self._baseline_name(),
            jobs=self.jobs,
            cache=self.cache,
            progress=self.progress,
            engine=self.engine,
        )

    def fuzz(
        self,
        configurations=None,
        seed: int = 1,
        budget: int = 200,
        shrink_violations: bool = True,
        **generator_options,
    ):
        """Run a property-based adversarial fuzz campaign (``repro fuzz``).

        ``configurations`` accepts functional profile names
        (``"secddr"``, ``"baseline_no_rap"``, ``"secddr_no_ewcrc"``),
        configuration-registry names, or :class:`SystemConfiguration`
        values (projected onto the functional model by their security
        claims); the default is the three functional profiles.  Scenarios
        fan out over the session's worker pool, and when the session has a
        result cache the campaign caches scenario outcomes under a ``fuzz/``
        subdirectory of it, so repeated campaigns re-execute nothing.
        ``generator_options`` forward to
        :class:`repro.fuzz.ScenarioGenerator` (``workloads``,
        ``background_ops``, ``benign_fraction``, ``max_actions``).
        Returns a :class:`repro.fuzz.FuzzReport`.
        """
        from repro.fuzz import FuzzCampaign

        campaign = FuzzCampaign(
            seed=seed,
            budget=budget,
            configurations=configurations,
            jobs=self.jobs,
            # The campaign nests scenario results under a fuzz/ subdirectory
            # of the session's simulation cache, keeping the keyspaces apart.
            cache=self.cache,
            progress=self.progress,
            shrink_violations=shrink_violations,
            **generator_options,
        )
        return campaign.run()

    # -- introspection -------------------------------------------------
    def configuration_registry(self):
        return CONFIGURATION_REGISTRY

    def workload_registry(self):
        return WORKLOAD_REGISTRY

    @property
    def cache_stats(self) -> Optional[Tuple[int, int]]:
        """(hits, misses) of the session cache, or None when caching is off."""
        if self.cache is None:
            return None
        return (self.cache.hits, self.cache.misses)

    def _sweep_workloads(self) -> Optional[List[WorkloadLike]]:
        return list(self._workloads) if self._workloads else None

    def _baseline_name(self) -> ConfigurationLike:
        return self.baseline

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return "Session(jobs=%d, cache=%s, configs=%d, workloads=%d)" % (
            self.jobs,
            getattr(self.cache, "directory", None),
            len(self._configs),
            len(self._workloads),
        )
