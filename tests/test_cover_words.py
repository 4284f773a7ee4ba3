"""The word-state cover search against the set-state search it replaced.

`reference_partition` is the search as it stood when its state was a
set of masks: a frozenset memo key per node and a member list per
candidate interval.  The word-state engine must return the same pair
list (None included) and ask `tops_for` the same number of times on
every search below.
"""

import random

import pytest

from sqstanley import partition, sqmod
from sqstanley.cover import first_interval_partition
from sqstanley.errors import CapExceededError
from sqstanley.instances import all_quotients, random_complex
from sqstanley.partition import face_ring, find_partition, generator_bottom_decomposition
from sqstanley.setcalc import submasks, word_masks
from sqstanley.sqmod import SqQuotient, dualize_quotient, sdepth


def reference_partition(support, tops_for):
    uncovered = set(support)
    dead = set()
    chosen = []

    def extend():
        if not uncovered:
            return True
        state = frozenset(uncovered)
        if state in dead:
            return False
        bottom = min(uncovered)
        for top in tops_for(bottom):
            if bottom & ~top:
                continue
            members = [bottom | s for s in submasks(top & ~bottom)]
            if any(m not in uncovered for m in members):
                continue
            uncovered.difference_update(members)
            chosen.append((bottom, top))
            if extend():
                return True
            chosen.pop()
            uncovered.update(members)
        dead.add(state)
        return False

    return chosen if extend() else None


def counted(tops_for, calls):
    def tops(bottom):
        calls.append(bottom)
        return tops_for(bottom)
    return tops


@pytest.fixture
def compared(monkeypatch):
    """Route sqmod's and partition's searches through both engines,
    asserting equal results and equal tops_for calls; collects each
    search's result."""
    searches = []

    def both(support, tops_for):
        word_calls, set_calls = [], []
        got = first_interval_partition(support, counted(tops_for, word_calls))
        want = reference_partition(word_masks(support), counted(tops_for, set_calls))
        assert got == want
        assert word_calls == set_calls
        searches.append(got)
        return got

    monkeypatch.setattr(sqmod, "first_interval_partition", both)
    monkeypatch.setattr(partition, "first_interval_partition", both)
    return searches


def band(n, d, e):
    return SqQuotient.from_support(
        n, [m for m in range(1 << n) if d <= m.bit_count() <= e])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_both_gates_at_every_size(compared, n):
    for module in all_quotients(n):
        for k in range(n + 1):
            sqmod._cover_min_top(module, k)
            sqmod._cover_max_bottom(module, k)
    assert any(found is None for found in compared)
    assert any(found is not None for found in compared)


def test_sdepth_on_every_n5_band(compared):
    for d in range(6):
        for e in range(d, 6):
            sdepth(band(5, d, e))
    assert len(compared) > 21


def test_partitions_of_random_complexes(compared):
    rng = random.Random(20261018)
    for _ in range(60):
        cx = random_complex(rng, rng.randrange(1, 8), max_facets=5)
        find_partition(cx)
        module = face_ring(cx)
        generator_bottom_decomposition(module)
        generator_bottom_decomposition(dualize_quotient(module))
    assert any(found is None for found in compared)
    assert any(found is not None for found in compared)


def test_too_deep_search_is_a_cap_error():
    # the level-6 antichain at n=13 needs 1716 singleton intervals
    module = band(13, 6, 6)
    with pytest.raises(CapExceededError, match=r"after choosing \d+ intervals"):
        sdepth(module)
