"""The one gated cover search against the gates it replaced.

Each `ref_*` below is a `tops_for` closure as it stood when sdepth,
hreg_min, find_partition and generator_bottom_decomposition each wrote
their own gate.  The two partition gates must run one search per call
and offer the same tops at every node, so their pair lists (None
included) are the same.  The sdepth and hreg gates search the level
normal form instead; the old closures stay as oracles for whether a
partition exists, and the pairs are checked to be a partition in that
normal form.  The sdepth probe is `_level_cover` on the support; the
hreg probe (the `max_bottom` fixture) is the same call on the
complements of the members, mirrored, which is also the dual's sdepth
probe, so hreg_dual (n minus the dual's sdepth) is no second route.
The old bottom-forced closure is the independent route for hreg,
checked here beyond n = 4 as well.  The last tests pin that the
value-only callers build no witness.
"""

import json
import random

import pytest

from sqstanley import sqmod
from sqstanley.cli import main
from sqstanley.cover import first_interval_partition
from sqstanley.homology import depth_duality_check
from sqstanley.instances import all_complexes, all_quotients, random_complex, random_quotient
from sqstanley.partition import face_ring, find_partition, generator_bottom_decomposition
from sqstanley.setcalc import Interval, submasks
from sqstanley.sqmod import SqQuotient, dualize_quotient, hreg_min
from sqstanley.survey import survey_module


def _by_size(masks):
    return sorted(masks, key=lambda t: (-t.bit_count(), t))


def ref_min_top(module, k):
    order = _by_size(module.support_masks())
    cache = {}

    def tops_for(e):
        got = cache.get(e)
        if got is None:
            got = [t for t in order if t & e == e and t.bit_count() >= k]
            cache[e] = got
        return got

    return module.support_word, tops_for


def ref_max_bottom(module, h):
    order = _by_size(module.support_masks())
    cache = {}

    def tops_for(e):
        if e.bit_count() > h:
            return ()
        got = cache.get(e)
        if got is None:
            got = [t for t in order if t & e == e]
            cache[e] = got
        return got

    return module.support_word, tops_for


def ref_facet_tops(cx):
    facets = _by_size(cx.facet_masks())

    def tops_for(bottom):
        return [f for f in facets if not bottom & ~f]

    return face_ring(cx).support_word, tops_for


def ref_generator_bottoms(module):
    gens = set(module.minimal_masks())
    candidates = _by_size(module.support_masks())

    def tops_for(bottom):
        if bottom not in gens:
            return []
        return [t for t in candidates if not bottom & ~t]

    return module.support_word, tops_for


def traced(support, tops_for):
    """One search, with the tops offered at each node."""
    offered = []

    def tops(bottom):
        got = tops_for(bottom)
        offered.append((bottom, list(got)))
        return got

    return support, first_interval_partition(support, tops), offered


@pytest.fixture
def same(monkeypatch):
    """same(call, reference): call() runs exactly the one search the
    reference closure describes; returns that search's pairs."""
    searches = []

    def record(support, tops_for):
        searches.append(traced(support, tops_for))
        return searches[-1][1]

    monkeypatch.setattr(sqmod, "first_interval_partition", record)

    def check(call, reference):
        searches.clear()
        call()
        assert searches == [traced(*reference)]
        return searches[0][1]

    return check


def in_normal_form(pairs, k):
    """Every interval with a bottom of size at most k has its top on
    level k; every other interval is a single set."""
    return all(t.bit_count() == k if b.bit_count() <= k else b == t for b, t in pairs)


def check_gate(module, pairs, reference):
    """The gate finds a partition exactly when the oracle does, and its
    intervals split the support, each member in exactly one; returns
    the pairs."""
    assert (pairs is None) == (first_interval_partition(*reference) is None)
    if pairs is not None:
        assert all(b & ~t == 0 for b, t in pairs)
        members = sorted(b | s for b, t in pairs for s in submasks(t & ~b))
        assert members == list(module.support_masks())
    return pairs


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_module_gates(same, max_bottom, n):
    full = (1 << n) - 1
    found = []
    for module in all_quotients(n):
        for m in (module, dualize_quotient(module)):
            for k in range(n + 1):
                pairs = check_gate(m, sqmod._level_cover(m.support_masks(), k), ref_min_top(m, k))
                assert pairs is None or in_normal_form(pairs, k)
                found.append(pairs)
                # [b, t] -> [complement of t, complement of b] takes
                # bottoms of size at most k to tops of size at least n - k
                pairs = check_gate(m, max_bottom(m, k), ref_max_bottom(m, k))
                assert pairs is None or in_normal_form(
                    [(full ^ t, full ^ b) for b, t in pairs], n - k)
                found.append(pairs)
            found.append(same(lambda: generator_bottom_decomposition(m),
                              ref_generator_bottoms(m)))
    assert None in found
    assert any(f is not None for f in found)


# n=6 bands L[d, e] on which the bottom-forced search runs out of memory
HREG_UNFINISHED = {(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5)}


def _beyond_n4():
    for n in (5, 6):
        for d in range(n + 1):
            for e in range(d, n + 1):
                if n == 5 or (d, e) not in HREG_UNFINISHED:
                    yield SqQuotient.from_support(
                        n, [m for m in range(1 << n) if d <= m.bit_count() <= e])
    rng = random.Random(55)
    for _ in range(100):
        yield random_quotient(rng, 5)


def test_hreg_against_the_bottom_forced_search(max_bottom):
    # at the answer h a partition exists and at h - 1 none does, by the
    # old search as well as by the gate
    for module in _beyond_n4():
        h, _ = hreg_min(module)
        for k in range(max(h - 1, 0), h + 1):
            exists = first_interval_partition(*ref_max_bottom(module, k)) is not None
            assert exists == (k == h) == (max_bottom(module, k) is not None)


def _complex_gates(same, cx):
    module = face_ring(cx)
    dual = dualize_quotient(module)
    return [same(lambda: find_partition(cx), ref_facet_tops(cx)),
            same(lambda: generator_bottom_decomposition(module), ref_generator_bottoms(module)),
            same(lambda: generator_bottom_decomposition(dual), ref_generator_bottoms(dual))]


def test_every_small_complex(same):
    found = []
    for n in range(1, 5):
        for cx in all_complexes(n):
            found += _complex_gates(same, cx)
    assert None in found
    assert any(f is not None for f in found)


def test_random_complexes(same):
    rng = random.Random(61)
    found = []
    for _ in range(60):
        found += _complex_gates(same, random_complex(rng, rng.randrange(1, 8), max_facets=5))
    assert None in found
    assert any(f is not None for f in found)


@pytest.fixture
def intervals_built(monkeypatch):
    # counts the intervals asked for through either way in, the checked
    # constructor or Interval.from_masks, not checks: a kept interval is
    # checked once, on its first build; a from_masks miss that goes on
    # to the constructor counts once
    built, inside = [], []
    check, from_masks = Interval.__post_init__, Interval.from_masks.__func__

    def counted_check(self):
        check(self)
        if type(self) is Interval and not inside:
            built.append(self)

    def counted_masks(cls, *args):
        inside.append(cls)
        try:
            atom = from_masks(cls, *args)
        finally:
            inside.pop()
        if cls is Interval:
            built.append(atom)
        return atom

    monkeypatch.setattr(Interval, "__post_init__", counted_check)
    monkeypatch.setattr(Interval, "from_masks", classmethod(counted_masks))
    return built


def test_value_only_callers_build_no_witness(intervals_built):
    for module in all_quotients(3):
        survey_module(module)
        depth_duality_check(module)
    assert intervals_built == []


def test_hreg_command_builds_only_its_witness(intervals_built, tmp_path, capsys):
    # hreg_dual is the one search's value read the other way; only its
    # witness is printed, so only its intervals are built
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"n": 4, "ideal": {"gens": [[1, 2], [2, 3], [3, 4]],
                                                  "encoding": "support"}}))
    assert main(["hreg", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(intervals_built) == len(doc["decomposition"]["intervals"]) > 0
