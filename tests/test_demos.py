"""Each demo runs to completion against the package's public names."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = {
    "01_composite_walkthrough.py": "factors: 293 * 3413 = 1000009",
    "02_prime_proof.py": "verdict: prime",
    "03_factor_recovery.py": "1000009 = 293 * 3413",
    "04_range_audit.py": "all certificates pass independent verification",
}


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert DEMOS[demo] in result.stdout
