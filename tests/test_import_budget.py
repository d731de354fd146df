"""Import budget: numpy and scipy load only where the fits run.

scipy (with numpy under it) is ~825 modules and ~80 MB of RSS, several
times the rest of the package.  Only the extended analyses use it:
``fit_reliability`` and the Poisson-homogeneity test import it inside
the function.  Each check runs in a fresh interpreter, because this
test process has long since imported scipy through other tests.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))

_REPORT = """
import json as _json, sys as _sys
print(_json.dumps(sorted(
    m for m in _sys.modules if m.split(".")[0] in ("numpy", "scipy")
)))
"""


def heavy_modules_after(code: str) -> list:
    """The numpy/scipy modules loaded after running ``code`` in a
    fresh interpreter (its own stdout is discarded)."""
    script = (
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + textwrap.indent(textwrap.dedent(code).strip(), "    ")
        + "\n"
        + _REPORT
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "module",
    [
        "repro",
        "repro.cli",
        "repro.analysis",
        "repro.experiments.campaign",
        "repro.experiments.shard",
    ],
)
def test_import_leaves_numpy_and_scipy_out(module):
    assert heavy_modules_after(f"import {module}") == []


def test_campaign_run_leaves_numpy_and_scipy_out():
    assert heavy_modules_after(
        """
        from repro import CampaignConfig, run_campaign
        result = run_campaign(CampaignConfig.quick())
        print(result.report.render())
        """
    ) == []


def test_sharded_run_leaves_numpy_and_scipy_out():
    assert heavy_modules_after(
        """
        from repro import CampaignConfig
        from repro.experiments.shard import run_sharded_campaign
        run_sharded_campaign(CampaignConfig.quick(), shards=2, workers=1)
        """
    ) == []


def test_analyze_leaves_numpy_and_scipy_out(tmp_path, quick_campaign):
    quick_campaign.fleet.collector.export_to_dir(str(tmp_path))
    assert heavy_modules_after(
        f"""
        from repro.cli import main
        assert main(["analyze", {str(tmp_path)!r}]) == 0
        """
    ) == []


def test_extended_report_loads_scipy():
    """The fits still run: the cost moved to the one place that uses it."""
    loaded = heavy_modules_after(
        """
        from repro import CampaignConfig, run_campaign
        result = run_campaign(CampaignConfig.quick())
        print(result.report.render_extended())
        """
    )
    assert "scipy.stats" in loaded
