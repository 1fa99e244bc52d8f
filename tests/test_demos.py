"""Every demo, and the README's Python example, runs end to end.

The demos call ``rollout``, the surrogate, the oracles and ``train``
directly, so they break when those signatures change.  Demos 04-05 run at
a fraction of their default size.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = {
    "01_rollout_and_branching.py": [],
    "02_surrogate_likelihoods.py": [],
    "03_gradient_identities.py": [],
    "04_variance_structure.py": ["--samples", "2000", "--trials", "4"],
    "05_train_sudoku.py": ["--updates", "5"],
}


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_cleanly(demo):
    run_python(str(ROOT / "demos" / demo), *DEMOS[demo])


def test_readme_python_example_runs():
    (block,) = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    run_python("-c", block)
