"""The demo scripts and the import paths they and the README use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_0(demo, tmp_path):
    # demos write their artefacts under the temporary directory
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr


def test_submodules_are_not_shadowed():
    import liftcurve.fit as fit_module
    import liftcurve.resample as resample_module

    # the package re-exports neither function named after its module
    assert callable(resample_module.compute_weights) and callable(resample_module.resample)
    assert isinstance(fit_module.FitConfig, type) and callable(fit_module.fit)
