"""The benchmark tools still run against the library.

The tracer patches library entry points by name (among them
sqmod.first_interval_partition), so a library change can break it
without any library test noticing.  Both commands import sqstanley
from the src/ directory beside bench/.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench(*args):
    done = subprocess.run([sys.executable, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_bench_selftest():
    bench("bench/selftest.py")


def test_traced_cover_deep_round():
    out = bench("bench/run.py", "--workload", "cover-deep", "--seconds", "1", "--trace", "1")
    assert json.loads(out.splitlines()[-1])["correct"] is True
