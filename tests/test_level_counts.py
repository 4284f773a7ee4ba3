"""The level-count test that lets sdepth and hreg_min skip searches.

The mirror test on a module is the direct test on its dual, so the
survey's check hreg_min == n - sdepth(dual) cannot catch a test that
wrongly rejects a feasible size.  Here the test is held against the
search itself: every size it rejects must be one the search fails on.
"""

import math

import pytest

from sqstanley import sqmod
from sqstanley.instances import all_quotients
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
def test_rejected_sizes_have_no_partition(n):
    rejected = 0
    for module in all_quotients(n):
        for m in (module, dualize_quotient(module)):
            f = sqmod._level_counts(m)
            for k in range(n + 1):
                if not sqmod._tops_can_reach(f, k):
                    rejected += 1
                    assert sqmod._cover_min_top(m, k) is None
                if not sqmod._tops_can_reach(f[::-1], n - k):
                    rejected += 1
                    assert sqmod._cover_max_bottom(m, k) is None
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
