"""The level-count test that lets sdepth and hreg_min skip searches.

The mirror test on a module is the direct test on its dual, and the
survey's witness check cannot see a feasible size that the test
wrongly rejects when the walk then finds a partition attaining the
next size down.  Here the test is held against the search itself:
every size it rejects must be one the search fails on.
The last tests run the searches on modules that finished only once
each probe searched its level normal form.
"""

import math

import pytest

from sqstanley import sqmod
from sqstanley.ideals import SqIdeal
from sqstanley.instances import all_quotients
from sqstanley.setcalc import IndexSet
from sqstanley.sqmod import (
    SqQuotient,
    dualize_quotient,
    hreg_min,
    sdepth,
    validate_decomposition,
)


def band(n, d, e):
    return SqQuotient.from_support(
        n, [m for m in range(1 << n) if d <= m.bit_count() <= e])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rejected_sizes_have_no_partition(max_bottom, n):
    rejected = 0
    for module in all_quotients(n):
        for m in (module, dualize_quotient(module)):
            f = [0] * (n + 1)
            for s in m.support_masks():
                f[s.bit_count()] += 1
            for k in range(n + 1):
                if not sqmod._tops_can_reach(f, k):
                    rejected += 1
                    assert sqmod._level_cover(m.support_masks(), k) is None
                if not sqmod._tops_can_reach(f[::-1], n - k):
                    rejected += 1
                    assert max_bottom(m, k) is None
            assert sqmod._tops_can_reach(f, sdepth(m)[0])
            assert sqmod._tops_can_reach(f[::-1], n - hreg_min(m)[0])
    if n > 1:
        assert rejected


@pytest.mark.parametrize("n", range(1, 16))
def test_top_bound_of_the_maximal_ideal(n):
    # sdepth(m) = ceil(n/2) (Biro-Howard-Keller-Trotter-Young); the
    # counts alone already stop there
    f = [0] + [math.comb(n, j) for j in range(1, n + 1)]
    accepted = [k for k in range(n + 1) if sqmod._tops_can_reach(f, k)]
    assert accepted == list(range(-(-n // 2) + 1))


@pytest.mark.parametrize("d, e", [(0, 3), (0, 4), (0, 5), (1, 3),
                                  (1, 4), (1, 5), (2, 4), (2, 5)])
def test_hreg_on_the_hard_n6_bands(d, e):
    # without the level counts these searches ran out of memory
    module = band(6, d, e)
    h, dec = hreg_min(module)
    assert h == 6 - sdepth(band(6, 6 - e, 6 - d))[0]
    assert dec.hreg == h
    assert validate_decomposition(module, dec)


@pytest.mark.parametrize("n, outer, inner, h", [
    # the face ring S/(x1x3x4x6, x2x5x6); its one feasible probe took 78 s
    (6, [[]], [[1, 3, 4, 6], [2, 5, 6]], 2),
    # no answer within 10 s from either search before
    (7, [[1, 2, 3, 4], [5]], [[1, 2, 3, 4, 6, 7], [2, 5, 6, 7]], 5),
])
def test_hreg_against_the_dual_sdepth(n, outer, inner, h):
    def ideal(gens):
        return SqIdeal.of(n, [IndexSet.of(n, g) for g in gens])

    module = SqQuotient(n, ideal(inner), ideal(outer))
    dual = dualize_quotient(module)
    got, dec = hreg_min(module)
    s, sdec = sdepth(dual)
    assert got == h == n - s
    assert dec.hreg == h and validate_decomposition(module, dec)
    assert sdec.sdepth == s and validate_decomposition(dual, sdec)


@pytest.mark.parametrize("n", range(1, 10))
def test_sdepth_of_the_maximal_ideal(n):
    module = band(n, 1, n)
    k, dec = sdepth(module)
    assert k == dec.sdepth == -(-n // 2)
    assert validate_decomposition(module, dec)
