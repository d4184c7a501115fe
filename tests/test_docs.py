"""Docs/CLI/registry consistency checks.

The CLI's generated command list (:func:`repro.cli.command_summaries`) and
the figure registry are the single sources of truth; these tests keep the
README and the ``docs/`` pages from drifting away from them.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

from repro.cli import command_summaries
from repro.figures import figure_names

REPO_ROOT = Path(__file__).resolve().parent.parent
README = REPO_ROOT / "README.md"
DOCS_DIR = REPO_ROOT / "docs"
REPRODUCING = DOCS_DIR / "reproducing-the-paper.md"
ARCHITECTURE = DOCS_DIR / "architecture.md"
ENGINES_DOC = DOCS_DIR / "engines.md"
BENCHMARKING_DOC = DOCS_DIR / "benchmarking.md"
OBSERVABILITY_DOC = DOCS_DIR / "observability.md"

#: Figure-guide sections look like ``### `fig6` — ...``.
GUIDE_HEADING = re.compile(r"^### `([a-z0-9_]+)`", re.MULTILINE)

SRC_DIR = REPO_ROOT / "src"
BENCHMARKS_DIR = REPO_ROOT / "benchmarks"
MARKDOWN_NAME = re.compile(r"[\w./-]+\.md\b")
#: Markdown files the code writes as artifacts, not documents in the repo.
GENERATED_MARKDOWN = {"REPORT.md"}
#: A Sphinx role naming a ``repro`` object (``:func:`~repro.sim.run_simulation```),
#: but not a name that only starts with "repro" (``:func:`reproduce```).
REPRO_ROLE = re.compile(r":(?:mod|class|func|meth|data|attr|exc):`~?(repro(?:\.\w+)*)`")


class TestReproducingGuide:
    def test_exists(self):
        assert REPRODUCING.is_file()

    def test_every_documented_spec_exists_in_the_registry(self):
        documented = GUIDE_HEADING.findall(REPRODUCING.read_text())
        assert documented, "no figure sections found in the guide"
        unknown = set(documented) - set(figure_names())
        assert not unknown, "docs name unregistered figure specs: %s" % sorted(unknown)

    def test_every_registered_spec_is_documented(self):
        documented = set(GUIDE_HEADING.findall(REPRODUCING.read_text()))
        missing = set(figure_names()) - documented
        assert not missing, "registered specs missing from the guide: %s" % sorted(missing)

    def test_guide_sections_follow_registry_order(self):
        documented = GUIDE_HEADING.findall(REPRODUCING.read_text())
        assert documented == figure_names()


class TestArchitectureDoc:
    def test_exists(self):
        assert ARCHITECTURE.is_file()

    @pytest.mark.parametrize("layer", [
        "repro.cpu", "repro.cache", "repro.controller", "repro.dram",
        "repro.secure", "repro.sim", "repro.sim.engines", "repro.figures",
        "repro.workloads", "repro.core", "repro.crypto", "repro.attacks",
        "repro.analysis", "repro.fuzz", "repro.traces", "repro.server",
        "repro.obs",
    ])
    def test_every_layer_is_described(self, layer):
        assert layer in ARCHITECTURE.read_text()

    def test_canonical_comparison_signature_is_documented(self):
        # The canonical kwargs shared by run_comparison / Session.compare /
        # Comparison.
        text = ARCHITECTURE.read_text()
        assert "configurations" in text and "engine=" in text


class TestEnginesDoc:
    def test_exists(self):
        assert ENGINES_DOC.is_file()

    def test_documents_every_registered_engine(self):
        from repro.sim.engines import engine_names

        text = ENGINES_DOC.read_text()
        for name in engine_names():
            assert "`%s`" % name in text, "docs/engines.md does not describe %r" % name

    def test_readme_has_a_choosing_an_engine_section(self):
        assert "Choosing an engine" in README.read_text()


class TestBenchmarkingDoc:
    def test_exists(self):
        assert BENCHMARKING_DOC.is_file()

    def test_readme_links_the_benchmarking_guide(self):
        assert "docs/benchmarking.md" in README.read_text()

    def test_names_the_harness_and_its_declaration(self):
        text = BENCHMARKING_DOC.read_text()
        assert "perfbench/run.py" in text and "BENCHMARK.json" in text


class TestObservabilityDoc:
    def test_exists(self):
        assert OBSERVABILITY_DOC.is_file()

    def test_readme_links_the_observability_guide(self):
        assert "docs/observability.md" in README.read_text()

    def test_documents_the_surfaces(self):
        text = OBSERVABILITY_DOC.read_text()
        assert "/metrics" in text and "--trace-out" in text
        assert "export-trace" in text and "--log-json" in text
        assert "perfetto" in text.lower()

    def test_documents_the_timeline_surfaces(self):
        text = OBSERVABILITY_DOC.read_text()
        assert "--timeline" in text and "--timeline-window" in text
        assert "/jobs/{id}/timeline" in text and "/metrics/stream" in text
        assert "dashboard.html" in text and "timeline.json" in text
        assert "with_observability(" in text and "timeline=" in text

    def test_readme_has_a_watching_a_run_live_section(self):
        readme = README.read_text()
        assert "Watching a run live" in readme
        assert "--timeline" in readme and "/metrics/stream" in readme

    def test_metric_catalogue_matches_the_instrumented_names(self):
        # Every metric family the code registers must be catalogued.
        text = OBSERVABILITY_DOC.read_text()
        for family in (
            "cache_ops_total", "cache_writes_total", "sim_jobs_total",
            "sim_job_seconds", "engine_jobs_total", "engine_accesses_per_sec",
            "server_jobs_total", "server_queue_depth", "server_job_seconds",
            "server_requests_total", "repro_build_info",
        ):
            assert "`%s`" % family in text, (
                "docs/observability.md does not catalogue %r" % family
            )

    def test_every_named_obs_api_exists(self):
        import repro.obs

        named = {
            (path.name, name)
            for path in [README, *sorted(DOCS_DIR.glob("*.md"))]
            for name in re.findall(r"\brepro\.obs\.([A-Za-z_]\w*)", path.read_text())
        }
        assert named, "no repro.obs names found in the docs"
        missing = sorted(pair for pair in named if not hasattr(repro.obs, pair[1]))
        assert missing == [], "docs name repro.obs APIs that do not exist: %s" % missing


class TestCommandDocumentation:
    def test_command_summaries_cover_the_parser(self):
        names = [name for name, _ in command_summaries()]
        assert "reproduce" in names and "compare" in names and "list" in names
        assert all(summary for _, summary in command_summaries())

    def test_readme_documents_every_subcommand(self):
        readme = README.read_text()
        missing = [
            name for name, _ in command_summaries()
            if not re.search(r"repro %s\b" % re.escape(name), readme)
        ]
        assert not missing, "README does not show these subcommands: %s" % missing

    def test_every_shown_command_exists(self):
        commands = {name for name, _ in command_summaries()}
        shown = {
            (path.name, word)
            for path in [README, *sorted(DOCS_DIR.glob("*.md"))]
            for word in re.findall(r"^\s*\$ repro ([a-z][\w-]*)", path.read_text(), re.MULTILINE)
        }
        assert shown, "no '$ repro <command>' lines found in the docs"
        unknown = sorted(pair for pair in shown if pair[1] not in commands)
        assert not unknown, "docs show commands the CLI does not have: %s" % unknown

    def test_cli_docstring_agrees_with_the_parser(self):
        import repro.cli

        # The docstring explains the generated epilog instead of hand-listing
        # every command; it must at least name the headline subcommands it
        # shows examples for, and never name a command that does not exist.
        documented = set(re.findall(r"repro\.cli (\w+)", repro.cli.__doc__ or ""))
        assert documented <= {name for name, _ in command_summaries()}


class TestPackageDocstrings:
    @pytest.mark.parametrize("module", [
        "repro", "repro.analysis", "repro.attacks", "repro.cache",
        "repro.controller", "repro.core", "repro.cpu", "repro.crypto",
        "repro.dram", "repro.figures", "repro.fuzz", "repro.obs",
        "repro.obs.dashboard", "repro.obs.timeline", "repro.secure",
        "repro.server", "repro.sim", "repro.sim.engines", "repro.traces",
        "repro.workloads",
    ])
    def test_every_subpackage_has_a_docstring(self, module):
        imported = __import__(module, fromlist=["__doc__"])
        assert imported.__doc__ and len(imported.__doc__.strip()) > 40


def _docstrings(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    nodes = [tree] + [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    return [doc for doc in (ast.get_docstring(node) for node in nodes) if doc]


class TestDocstringReferences:
    def test_every_markdown_file_named_in_a_docstring_exists(self):
        named = {
            (name, path.relative_to(REPO_ROOT).as_posix())
            for path in [*SRC_DIR.rglob("*.py"), *BENCHMARKS_DIR.glob("*.py")]
            for doc in _docstrings(path)
            for name in MARKDOWN_NAME.findall(doc)
            if name.rsplit("/", 1)[-1] not in GENERATED_MARKDOWN
        }
        assert named, "no markdown file is named in any docstring"
        missing = sorted((name, where) for name, where in named if not (REPO_ROOT / name).is_file())
        assert not missing, "docstrings name missing files: %s" % missing

    def test_every_repro_object_named_in_a_docstring_exists(self):
        named = {
            (name, path.relative_to(REPO_ROOT).as_posix())
            for path in SRC_DIR.rglob("*.py")
            for doc in _docstrings(path)
            for name in REPRO_ROLE.findall(doc)
        }
        assert named, "no repro object is named in any docstring"
        missing = sorted((name, where) for name, where in named if not _resolves(name))
        assert not missing, "docstrings name missing objects: %s" % missing


def _resolves(dotted):
    """Whether ``dotted`` names a module, or an attribute path from one."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


class TestReadmeExamples:
    def test_the_session_example_runs_as_is(self, tmp_path, monkeypatch, capsys, clean_registries):
        text = README.read_text()
        section = text[text.index("## Custom configurations and workloads"):]
        code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
        monkeypatch.chdir(tmp_path)
        exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[-1] == "audited_ctr"
        assert [line.split()[0] for line in lines[1:3]] == ["mcf", "striding_writes"]
        assert lines[-1] == "cache (hits, misses): (0, 8)"
        assert len(list((tmp_path / ".simcache").glob("*.json"))) == 8
