"""Every demo runs to completion in a fresh interpreter, and the demos that
print only exact results print the same bytes every time."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# SHA-256 of stdout. two_term_decay and integer_base_expansion print floats
# from libm and mpmath, so they are left out.
EXACT_OUTPUT_DIGESTS = {
    "greedy_digits.py":
        "eb11c05ef6bc9d79db9629a3925c8f36132a59743fed0b3fcfd31ab0c6b81d3a",
    "invariant_density.py":
        "1b6248ab1cf48ef59009a4322674832d153722a77f78c8417d8b3e75193a8834",
    "partition_blocks.py":
        "eaa0e17b97ec106373dac83eb296491beabf27d45d1b64e0b357ad4de1421b68",
    "spectral_projections.py":
        "401ddca457fd12a11a05494c3eefff48f86469953e71ba0ad67c0fa978f82598",
}


def test_demos_found():
    assert len(DEMOS) >= 6
    assert set(EXACT_OUTPUT_DIGESTS) <= {demo.name for demo in DEMOS}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    if demo.name in EXACT_OUTPUT_DIGESTS:
        assert hashlib.sha256(proc.stdout).hexdigest() == EXACT_OUTPUT_DIGESTS[demo.name]
