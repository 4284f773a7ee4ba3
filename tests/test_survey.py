import dataclasses
import random

import pytest

from sqstanley.errors import CapExceededError
from sqstanley.ideals import SqIdeal
from sqstanley.instances import random_quotient
from sqstanley.sqmod import SqQuotient
from sqstanley.survey import (
    counterexamples,
    survey_exhaustive,
    survey_module,
    survey_random,
)


def ring_mod(gen_masks, n):
    return SqQuotient(n, SqIdeal.of(n, gen_masks), SqIdeal.of(n, [0]))


class TestSurveyModule:
    def test_hypersurface(self):
        rec = survey_module(ring_mod([0b11], 2))
        assert (rec.sdepth, rec.depth) == (1, 1)
        assert (rec.hreg_min, rec.hreg_dual) == (1, 1)
        assert (rec.reg, rec.projdim, rec.dim) == (1, 1, 1)
        assert rec.cohen_macaulay
        assert rec.sdepth_ge_depth and rec.hreg_le_reg

    def test_residue_field(self):
        rec = survey_module(ring_mod([0b01, 0b10], 2))
        assert (rec.sdepth, rec.depth) == (0, 0)
        assert (rec.hreg_min, rec.reg) == (0, 0)

    def test_maximal_ideal_module(self):
        mod = SqQuotient(2, SqIdeal.of(2, []), SqIdeal.of(2, [0b01, 0b10]))
        rec = survey_module(mod)
        assert (rec.sdepth, rec.depth) == (1, 1)
        assert (rec.hreg_min, rec.reg) == (1, 1)

    def test_row_is_flat_and_readable(self):
        row = survey_module(ring_mod([0b11], 2)).row()
        assert row["inner"] == "{1,2}"
        assert row["outer"] == "{}"
        assert all(isinstance(v, (int, bool, str)) for v in row.values())

    def test_random_instances_hold_both_flags(self):
        rng = random.Random(20260822)
        for _ in range(60):
            rec = survey_module(random_quotient(rng, rng.randrange(1, 5)))
            assert rec.sdepth_ge_depth and rec.hreg_le_reg


class TestSweeps:
    def test_exhaustive_n2(self):
        records = survey_exhaustive(2)
        assert len(records) == 14
        assert not counterexamples(records)

    def test_exhaustive_deterministic(self):
        assert survey_exhaustive(2) == survey_exhaustive(2)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            survey_exhaustive(5)
        assert survey_exhaustive(2, cap=2)

    def test_random_seeded(self):
        a = survey_random(4, 20, seed=99)
        b = survey_random(4, 20, seed=99)
        assert a == b
        assert len(a) == 20

    def test_random_different_seeds_differ(self):
        assert survey_random(4, 20, seed=1) != survey_random(4, 20, seed=2)

    def test_jobs_match_sequential(self):
        assert survey_random(3, 12, seed=5, jobs=2) == survey_random(3, 12, seed=5)

    def test_exhaustive_jobs_match_sequential(self):
        # the pool pickles the enumerated modules themselves
        assert survey_exhaustive(3, jobs=2) == survey_exhaustive(3)

    def test_counterexample_filter(self):
        rec = survey_module(ring_mod([0b11], 2))
        fake = dataclasses.replace(rec, sdepth=rec.depth - 1)
        assert counterexamples([rec, fake]) == [fake]
