"""Substrate reach: a campaign loads every Symbian and phone module.

The Symbian substrate exists so that each Table 2 panic is raised by
the substrate's own guard code (DESIGN.md §1).  A module that no
simulated phone goes through is not part of the reproduction.  This
test runs the CLI import and one quick campaign in a fresh interpreter,
then checks that every module under ``repro.symbian`` and
``repro.phone`` was loaded.  A new module that nothing runs fails here.
"""

import json
import os
import subprocess
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))

PACKAGES = ("repro.symbian", "repro.phone")

_SCRIPT = """
import contextlib, io, json, sys
with contextlib.redirect_stdout(io.StringIO()):
    import repro.cli
    from repro import CampaignConfig, run_campaign
    run_campaign(CampaignConfig.quick())
print(json.dumps(sorted(sys.modules)))
"""


def modules_on_disk(package: str) -> set:
    """Dotted names of ``package`` and every module file below it."""
    root = os.path.join(SRC, *package.split("."))
    names = set()
    for directory, subdirs, files in os.walk(root):
        subdirs[:] = [d for d in subdirs if d != "__pycache__"]
        relative = os.path.relpath(directory, SRC).split(os.sep)
        for filename in files:
            if not filename.endswith(".py"):
                continue
            stem = filename[: -len(".py")]
            parts = relative if stem == "__init__" else relative + [stem]
            names.add(".".join(parts))
    return names


def test_campaign_loads_every_substrate_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout.splitlines()[-1]))
    expected = set().union(*(modules_on_disk(p) for p in PACKAGES))
    assert "repro.symbian.kernel" in expected
    assert "repro.phone.faults" in expected
    unreached = sorted(expected - loaded)
    assert unreached == [], f"no campaign loads {unreached}"
