"""Docs-freshness pins: the registry is the source of truth.

Three layers of protection against documentation drift:

* the tier table in ``repro/montecarlo/dispatch.py``'s module docstring
  and the ``describe`` output must name **every** registered fastsim
  sampler and batchsim lift — registering a new entry without
  documenting it fails here;
* the committed ``EXPERIMENTS.md`` must be byte-identical to what
  ``python -m repro.experiments describe --markdown`` regenerates from
  the live registry (backends included, so a dispatch change that
  silently demotes an experiment to a slower tier also fails here);
* ``ARCHITECTURE.md``/``README.md`` exist, cross-link, name every
  sampler/lift, and no top-level markdown file carries a broken
  relative link.
"""

import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro.montecarlo.dispatch as dispatch_module
from repro.batchsim.programs import registered_lifts
from repro.experiments.describe import (
    render_markdown,
    render_text,
    throughput_data,
    throughput_provenance,
)
from repro.montecarlo.dispatch import registered_samplers
from repro.serve import SimulationServer
from tests.helpers import serve_every_event

REPO_ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT / "tools"))
from lint_docs import broken_links  # noqa: E402


def sampler_names():
    names = [entry.name for entry in registered_samplers()]
    assert names, "sampler registry unexpectedly empty"
    return names


def lift_names():
    names = [entry.name for entry in registered_lifts()]
    assert names, "lift registry unexpectedly empty"
    return names


class TestDispatchDocstring:
    def test_names_every_registered_sampler(self):
        docstring = dispatch_module.__doc__
        for name in sampler_names():
            assert name in docstring, (
                f"sampler {name!r} is registered but missing from the "
                f"dispatch.py tier table docstring"
            )

    def test_names_every_registered_lift(self):
        docstring = dispatch_module.__doc__
        for name in lift_names():
            assert name in docstring, (
                f"batchsim lift {name!r} is registered but missing from "
                f"the dispatch.py tier table docstring"
            )


class TestDescribeOutput:
    def test_names_every_sampler_and_lift(self):
        text = render_text()
        for name in sampler_names() + lift_names():
            assert name in text, (
                f"registry entry {name!r} missing from the describe output"
            )

    def test_markdown_names_every_sampler_and_lift(self):
        markdown = render_markdown()
        for name in sampler_names() + lift_names():
            assert f"`{name}`" in markdown

    def test_cli_entrypoint_runs(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "describe",
             "--markdown"],
            capture_output=True, text=True, cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin"},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == render_markdown().strip()


class TestCommittedDocs:
    def test_experiments_md_matches_registry(self):
        committed = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        regenerated = render_markdown()
        assert committed.strip() == regenerated.strip(), (
            "EXPERIMENTS.md drifted from the registry — regenerate with "
            "`PYTHONPATH=src python -m repro.experiments describe "
            "--markdown > EXPERIMENTS.md`"
        )

    def test_architecture_md_names_every_sampler_and_lift(self):
        architecture = (REPO_ROOT / "ARCHITECTURE.md").read_text()
        for name in sampler_names() + lift_names():
            assert f"`{name}`" in architecture, (
                f"registry entry {name!r} missing from ARCHITECTURE.md"
            )

    def test_readme_links_architecture_and_experiments(self):
        readme = (REPO_ROOT / "README.md").read_text()
        assert "ARCHITECTURE.md" in readme
        assert "EXPERIMENTS.md" in readme

    @pytest.mark.parametrize("name", ["README.md", "ARCHITECTURE.md",
                                      "EXPERIMENTS.md", "ROADMAP.md"])
    def test_markdown_links_resolve(self, name):
        assert broken_links([REPO_ROOT / name]) == []


class TestObservabilityDocs:
    """ARCHITECTURE/README must document the metrics layer they ship."""

    def test_architecture_has_an_observability_section(self):
        architecture = (REPO_ROOT / "ARCHITECTURE.md").read_text()
        assert "## Observability" in architecture
        for series in ("serve.query.seconds", "mc.trials",
                       "mc.executor.shard.seconds", "mc.dispatch.match"):
            assert f"`{series}`" in architecture, (
                f"metric series {series!r} missing from ARCHITECTURE.md's "
                f"Observability section"
            )
        assert "repro.obs.slow" in architecture  # the slow-span log

    def test_readme_quickstarts_the_metrics_op(self):
        readme = (REPO_ROOT / "README.md").read_text()
        assert '{"op": "metrics"}' in readme
        assert "python -m repro.obs render" in readme


class TestServiceDocs:
    """The persistence + admission layers must ship with their docs."""

    def test_architecture_documents_the_memo_journal(self):
        architecture = (REPO_ROOT / "ARCHITECTURE.md").read_text()
        assert "### Persistent memo" in architecture
        assert "repro-serve-memo" in architecture, (
            "ARCHITECTURE.md must pin the journal header format name"
        )
        assert "os.replace" in architecture  # atomic compaction contract

    def test_architecture_documents_admission_control(self):
        architecture = (REPO_ROOT / "ARCHITECTURE.md").read_text()
        assert "### Admission control" in architecture
        assert "retry_after_ms" in architecture

    def test_architecture_names_every_serving_series(self, tmp_path):
        # The serve.* counters and gauges the metrics op builds: every
        # name the export spells, each one seen in a live reply.
        spelled = set(re.findall(r'"(serve\.[a-z.]+)"', inspect.getsource(
            SimulationServer._serving_series)))
        _, metrics = serve_every_event(tmp_path / "memo.ndjson")
        served = {entry["name"] for kind in ("counters", "gauges")
                  for entry in metrics["metrics"][kind]
                  if entry["name"].startswith("serve.")}
        assert served == spelled
        architecture = (REPO_ROOT / "ARCHITECTURE.md").read_text()
        for series in sorted(served):
            assert f"`{series}`" in architecture, (
                f"metric series {series!r} missing from ARCHITECTURE.md"
            )

    def test_readme_quickstarts_warm_restart(self):
        readme = (REPO_ROOT / "README.md").read_text()
        assert "--memo-path" in readme
        assert "run_until" in readme
        assert "--max-concurrent-runs" in readme
        assert '"overloaded"' in readme

    def test_experiments_md_has_a_servable_column(self):
        committed = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        assert "| Servable |" in committed


class TestExecutorDocs:
    """The execution substrate must ship with its docs."""

    def test_architecture_has_an_execution_substrate_section(self):
        architecture = (REPO_ROOT / "ARCHITECTURE.md").read_text()
        assert "## Execution substrate" in architecture
        for backend in ("in-process", "local-process", "remote-socket"):
            assert f"`{backend}`" in architecture, (
                f"executor backend {backend!r} missing from "
                f"ARCHITECTURE.md's Execution substrate section"
            )
        for series in ("mc.executor.shards", "mc.executor.shard.seconds",
                       "mc.executor.shard.queue_seconds",
                       "mc.executor.retries"):
            assert f"`{series}`" in architecture, (
                f"metric series {series!r} missing from ARCHITECTURE.md"
            )
        assert "WorkerCrashError" in architecture
        assert "max_shard_retries" in architecture

    def test_architecture_layer_map_names_the_new_packages(self):
        architecture = (REPO_ROOT / "ARCHITECTURE.md").read_text()
        assert "montecarlo/executors/" in architecture
        assert "distrib/" in architecture

    def test_readme_quickstarts_the_distributed_workers(self):
        readme = (REPO_ROOT / "README.md").read_text()
        assert "python -m repro.distrib worker" in readme
        assert "--executor remote:" in readme
        assert "--executor-workers" in readme
        assert "python -m repro.distrib smoke" in readme

    def test_experiments_md_documents_the_executor_flag(self):
        committed = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        assert "--executor SPEC" in committed


class TestThroughputTable:
    """The measured-throughput column the ROADMAP asks EXPERIMENTS.md for."""

    def test_committed_measurement_covers_every_backend_tier(self):
        data = throughput_data()
        assert data is not None, (
            "benchmarks/throughput.json is missing — regenerate with "
            "tools/measure_throughput.py"
        )
        backends = {row["backend"] for row in data["rows"]}
        assert "engine (pinned)" in backends
        assert "batchsim" in backends
        assert "batchsim (4 workers)" in backends, (
            "the sharded-batchsim throughput row is missing"
        )
        assert any(name.startswith("fastsim:") for name in backends)

    def test_every_row_names_its_executor_substrate(self):
        data = throughput_data()
        executors = {row["executor"] for row in data["rows"]}
        assert "in-process" in executors
        assert "local-process (4)" in executors, (
            "the sharded row must name its local-process substrate"
        )
        markdown = render_markdown()
        assert "| Executor |" in markdown

    def test_rendered_docs_carry_the_measurement(self):
        data = throughput_data()
        markdown = render_markdown()
        assert "### Measured throughput per backend" in markdown
        for row in data["rows"]:
            assert f"`{row['backend']}`" in markdown
        text = render_text()
        assert "measured throughput per backend" in text

    def test_committed_measurement_is_provenance_stamped(self):
        """Numbers without machine/cores/date are unreviewable."""
        data = throughput_data()
        assert isinstance(data.get("machine"), str) and data["machine"]
        assert isinstance(data.get("cpu_count"), int)
        assert data["cpu_count"] >= 1
        measured_at = data.get("measured_at")
        assert isinstance(measured_at, str), (
            "benchmarks/throughput.json lacks a measured_at stamp — "
            "regenerate with tools/measure_throughput.py"
        )
        import re
        assert re.fullmatch(
            r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z", measured_at
        ), f"measured_at is not a UTC ISO-8601 stamp: {measured_at!r}"

    def test_rendered_docs_carry_the_provenance(self):
        """Both renderers must show when/where the numbers were taken."""
        data = throughput_data()
        sentence = throughput_provenance(data)
        assert data["measured_at"] in sentence
        assert str(data["cpu_count"]) in sentence
        for rendered in (render_text(), render_markdown()):
            assert data["measured_at"] in rendered
            assert "measured on" in rendered

    def test_provenance_caveat_tracks_core_count(self):
        starved = throughput_provenance(
            {"machine": "m", "cpu_count": 1, "measured_at": "now"})
        assert "overhead" in starved
        healthy = throughput_provenance(
            {"machine": "m", "cpu_count": 8, "measured_at": "now"})
        assert "overhead" not in healthy
        undated = throughput_provenance({"machine": "m", "cpu_count": 8})
        assert "not recorded" in undated
