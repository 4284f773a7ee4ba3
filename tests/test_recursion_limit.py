"""Both backtracking searches run in constant interpreter stack.

The child process lowers the recursion limit to 100 after its imports
and then runs searches that place more than 100 intervals or
generators, so any per-node recursion in the cover search or the
linear-quotients search fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import itertools, json, sys
from sqstanley.ideals import SqIdeal
from sqstanley.linquot import linear_quotients_order
from sqstanley.sqmod import SqQuotient, sdepth

band = SqQuotient.from_support(9, [m for m in range(1 << 9) if m.bit_count() == 4])
quadrics = SqIdeal.of(18, [(1 << a) | (1 << b)
                           for a, b in itertools.combinations(range(18), 2)])
sys.setrecursionlimit(100)
value, dec = sdepth(band)
order = linear_quotients_order(quadrics)
print(json.dumps({"sdepth": value, "intervals": len(dec.intervals),
                  "steps": len(order.gens), "r": order.r}))
"""


def test_searches_under_a_recursion_limit_of_100():
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    done = subprocess.run([sys.executable, "-c", CHILD], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # L[4,4] at n=9 is an antichain: its one partition is its 126
    # singletons.  The squarefree Veronese ideal of the 153 quadrics in
    # 18 variables has projective dimension n - 2, the r of any linear
    # quotients order.
    assert json.loads(done.stdout) == {"sdepth": 4, "intervals": 126,
                                       "steps": 153, "r": 16}
