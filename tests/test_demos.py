"""The quick demos run end to end.

Demos 01-03 call ``rollout``, the surrogate and the oracles directly, so
they break when those signatures change.  Demos 04-05 train and measure
for about ten seconds and stay out of the default suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUICK_DEMOS = (
    "01_rollout_and_branching.py",
    "02_surrogate_likelihoods.py",
    "03_gradient_identities.py",
)


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
