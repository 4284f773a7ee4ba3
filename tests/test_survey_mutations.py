"""Faults planted in the cover probe must stop the survey.

The survey's hreg_dual is its hreg search read the other way, so it
cannot see a fault in that search; the witness check must.  Each test
corrupts `sqmod._level_cover`, the one probe of the sdepth and hreg
walk, and expects survey_exhaustive(4) to raise TheoremViolationError
naming the instance.  The check proves no optimality: a walk that
refuses a feasible size and then finds a partition attaining the
smaller one passes it.  A proof of optimality that does not go through
`_level_cover` is still open; an unrestricted search one size above
the answer ran out of memory on survey_random(7, 40, seed=7), so it
waits for a node budget on the cover engine.
"""

import pytest

from sqstanley import sqmod
from sqstanley.errors import TheoremViolationError
from sqstanley.survey import survey_exhaustive


@pytest.fixture
def plant(monkeypatch):
    """plant(fault) routes every probe through fault(probe, masks, k)."""
    probe = sqmod._level_cover

    def planted(fault):
        monkeypatch.setattr(sqmod, "_level_cover", lambda masks, k: fault(probe, masks, k))

    return planted


def refuse_level_2(probe, masks, k):
    # the level-2 covers of families with more than 6 members
    return None if k == 2 and len(masks) > 6 else probe(masks, k)


def drop_one_interval(probe, masks, k):
    found = probe(masks, k)
    return found if found is None else found[:-1]


def test_the_survey_passes_unplanted():
    assert len(survey_exhaustive(3)) == 148


@pytest.mark.parametrize("fault", [refuse_level_2, drop_one_interval])
def test_a_planted_fault_stops_the_survey(plant, fault):
    plant(fault)
    with pytest.raises(TheoremViolationError,
                       match=r"witness is not a partition attaining \d+ on inner="):
        survey_exhaustive(4)
