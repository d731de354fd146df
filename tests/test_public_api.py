"""Guard the public API surface: exports exist and stay importable."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.symbian",
    "repro.symbian.servers",
    "repro.phone",
    "repro.logger",
    "repro.forum",
    "repro.analysis",
    "repro.experiments",
    "repro.robustness",
    "repro.observability",
]

MODULES = [
    "repro.cli",
    "repro.core.clock",
    "repro.core.engine",
    "repro.core.events",
    "repro.core.rand",
    "repro.core.records",
    "repro.core.errors",
    "repro.symbian.panics",
    "repro.symbian.kernel",
    "repro.symbian.memory",
    "repro.symbian.heap",
    "repro.symbian.cleanup",
    "repro.symbian.cobject",
    "repro.symbian.handles",
    "repro.symbian.descriptors",
    "repro.symbian.active",
    "repro.symbian.timers",
    "repro.symbian.ipc",
    "repro.symbian.appfw",
    "repro.symbian.errors",
    "repro.symbian.servers.apparch",
    "repro.symbian.servers.logdb",
    "repro.symbian.servers.sysagent",
    "repro.symbian.servers.rdebug",
    "repro.symbian.servers.viewsrv",
    "repro.phone.apps",
    "repro.phone.battery",
    "repro.phone.device",
    "repro.phone.user",
    "repro.phone.faults",
    "repro.phone.profiles",
    "repro.phone.fleet",
    "repro.logger.heartbeat",
    "repro.logger.panic_detector",
    "repro.logger.runapp",
    "repro.logger.log_engine",
    "repro.logger.power",
    "repro.logger.logfile",
    "repro.logger.daemon",
    "repro.logger.transfer",
    "repro.logger.dexc",
    "repro.forum.taxonomy",
    "repro.forum.vocabulary",
    "repro.forum.corpus",
    "repro.forum.classifier",
    "repro.forum.study",
    "repro.analysis.ingest",
    "repro.analysis.shutdowns",
    "repro.analysis.availability",
    "repro.analysis.panics",
    "repro.analysis.bursts",
    "repro.analysis.coalescence",
    "repro.analysis.hl_relationship",
    "repro.analysis.activity",
    "repro.analysis.runapps",
    "repro.analysis.output_failures",
    "repro.analysis.reliability",
    "repro.analysis.variability",
    "repro.analysis.trends",
    "repro.analysis.downtime",
    "repro.analysis.tables",
    "repro.analysis.report",
    "repro.analysis.streaming",
    "repro.experiments.config",
    "repro.experiments.campaign",
    "repro.experiments.paper",
    "repro.experiments.compare",
    "repro.experiments.runner",
    "repro.experiments.cache",
    "repro.experiments.summary",
    "repro.experiments.shard",
    "repro.robustness.plan",
    "repro.robustness.injectors",
    "repro.robustness.experiment",
    "repro.observability.metrics",
    "repro.observability.tracer",
    "repro.observability.telemetry",
    "repro.observability.export",
]


@pytest.mark.parametrize("name", MODULES, ids=lambda n: n)
def test_module_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize("name", PACKAGES, ids=lambda n: n)
def test_package_all_entries_resolve(name):
    package = importlib.import_module(name)
    exported = getattr(package, "__all__", [])
    assert exported, f"{name} should declare __all__"
    for symbol in exported:
        assert hasattr(package, symbol), f"{name}.{symbol} missing"


def test_analysis_exports_one_report_path():
    """The report sections come from ``build_report`` (the per-phone
    fold); no per-section batch builder is exported beside it."""
    import repro.analysis as analysis

    assert {"build_report", "CampaignAccumulator"} <= set(analysis.__all__)
    for name in (
        "compute_availability",
        "compute_panic_table",
        "compute_bursts",
        "compute_hl_relationship",
        "compute_activity_table",
        "compute_running_apps",
        "compute_output_failures",
        "compute_shutdown_study",
    ):
        assert name not in analysis.__all__
        assert not hasattr(analysis, name)


def test_version_string():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(part.isdigit() for part in parts)


def test_every_public_module_has_docstring():
    for name in MODULES:
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} lacks a module docstring"


def test_public_classes_have_docstrings():
    import inspect

    for name in MODULES:
        module = importlib.import_module(name)
        for attr_name, obj in vars(module).items():
            if attr_name.startswith("_"):
                continue
            if inspect.isclass(obj) and obj.__module__ == name:
                assert obj.__doc__, f"{name}.{attr_name} lacks a docstring"
