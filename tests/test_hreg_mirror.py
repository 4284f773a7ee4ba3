"""hreg_min searches the complemented level normal form.

Alexander duality takes the interval [b, t] to [complement of t,
complement of b], so the hreg probe at h on a module is the sdepth
probe at n - h on the complements of its members: the largest
uncovered member is forced as a top and only bottoms on level h are
guessed.  These tests pin that mirror, value, witness and work, and
the module on which the bottom-forced search it replaced ran for
minutes.  Whether a partition exists is checked against that older
search in test_cover_gates.
"""

import json
import time

import pytest

from sqstanley import sqmod
from sqstanley.cli import main
from sqstanley.ideals import SqIdeal
from sqstanley.setcalc import IndexSet
from sqstanley.sqmod import (
    SqQuotient,
    dualize_decomposition,
    hreg_min,
    sdepth,
    validate_decomposition,
)


@pytest.fixture
def nodes(monkeypatch):
    """Every bottom the cover engine asks tops for, across all searches."""
    asked = []
    search = sqmod.first_interval_partition

    def counted(support, tops_for):
        def tops(bottom):
            asked.append(bottom)
            return tops_for(bottom)
        return search(support, tops)

    monkeypatch.setattr(sqmod, "first_interval_partition", counted)
    return asked


def band(n, d, e):
    return SqQuotient.from_support(
        n, [m for m in range(1 << n) if d <= m.bit_count() <= e])


# (x3, x1x4x5)/(x1x3x4x5x6x7): 70 support members, level counts
# 0, 1, 6, 16, 23, 18, 6, 0.  The bottom-forced search filled its
# dead-state memo for minutes before it returned 3.
FOUND_GENS = {"outer": [[3], [1, 4, 5]], "inner": [[1, 3, 4, 5, 6, 7]]}


def found_module():
    def ideal(gens):
        return SqIdeal.of(7, [IndexSet.of(7, g) for g in gens])
    return SqQuotient(7, ideal(FOUND_GENS["inner"]), ideal(FOUND_GENS["outer"]))


def test_found_module(nodes):
    module = found_module()
    start = time.perf_counter()
    h, dec = hreg_min(module)
    elapsed = time.perf_counter() - start
    assert h == 3 == dec.hreg
    assert validate_decomposition(module, dec)
    assert len(nodes) == 16
    assert elapsed < 1.0


def test_found_module_through_the_cli(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"n": 7, "quotient": {
        side: {"gens": gens, "encoding": "support"} for side, gens in FOUND_GENS.items()}}))
    assert main(["hreg", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["hreg_min"] == doc["hreg_dual"] == 3


@pytest.mark.parametrize("n", [5, 6])
def test_every_band_mirrors_the_dual_sdepth(nodes, n):
    # L[n-e, n-d] is the complement family of L[d, e]; at n=6 this
    # includes the eight bands on which the bottom-forced search ran
    # out of memory
    for d in range(n + 1):
        for e in range(d, n + 1):
            nodes.clear()
            h, dec = hreg_min(band(n, d, e))
            hreg_nodes = len(nodes)
            nodes.clear()
            s, sdec = sdepth(band(n, n - e, n - d))
            assert h == n - s, (d, e)
            assert dec == dualize_decomposition(sdec), (d, e)
            assert hreg_nodes == len(nodes), (d, e)
