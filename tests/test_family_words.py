"""Family words against the mask sweeps they replaced.

Each reference below is the 2^n loop (through contains_mask) or the
pairwise comparison that the word-based code replaced; the word-based
results must equal them exactly, errors included.
"""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from sqstanley import setcalc, sqmod
from sqstanley.errors import CapExceededError
from sqstanley.filtration import facet_peel_filtration
from sqstanley.ideals import SqIdeal, sr_complex, tilde
from sqstanley.setcalc import (
    IndexSet,
    SimplicialComplex,
    complement_family,
    cone_word,
    down_closure,
    family_word,
    full_word,
    minimal_nonface_masks,
    one_larger,
    one_smaller,
    up_closure,
    word_masks,
)
from sqstanley.sqmod import SqQuotient, StanleyDecomposition, hreg_min, sdepth


# ---------------------------------------------------------------- references

def ref_support_masks(q):
    return tuple(m for m in range(1 << q.n)
                 if q.outer.contains_mask(m) and not q.inner.contains_mask(m))


def ref_facet_masks(q):
    supp = ref_support_masks(q)
    return tuple(m for m in supp if not any(s != m and s & m == m for s in supp))


def ref_minimal_masks(q):
    supp = ref_support_masks(q)
    return tuple(m for m in supp if not any(s != m and s & m == s for s in supp))


def ref_peel_order(q):
    remaining = set(ref_support_masks(q))
    order = []
    while remaining:
        peel = min(m for m in remaining
                   if not any(s != m and s & m == m for s in remaining))
        order.append(peel)
        remaining.discard(peel)
    return order


def ref_sr_facet_masks(ideal):
    n = ideal.n
    return tuple(m for m in range(1 << n)
                 if not ideal.contains_mask(m)
                 and all(ideal.contains_mask(m | (1 << j)) for j in range(n) if not m >> j & 1))


def ref_tilde(ideal):
    full = (1 << ideal.n) - 1
    return SqIdeal(ideal.n, tuple(sorted(full ^ m for m in ref_sr_facet_masks(ideal))))


def ref_minimal_nonface_masks(cx):
    faces = set(cx.face_masks())
    return tuple(m for m in range(1 << cx.n)
                 if m not in faces
                 and all(m & ~(1 << j) in faces for j in range(cx.n) if m >> j & 1))


def ref_from_support(n, masks):
    family = set(masks)
    outer = SqIdeal.of(n, family)
    gap = [m for m in range(1 << n) if outer.contains_mask(m) and m not in family]
    gapset = set(gap)
    for m in gap:
        for j in range(n):
            above = m | (1 << j)
            if above != m and above in family:
                below = next(c for c in sorted(family) if c & ~m == 0)
                raise ValueError(
                    "support family is not order convex: "
                    f"{IndexSet(n, below)} <= {IndexSet(n, m)} <= {IndexSet(n, above)} "
                    "with the middle set missing")
    inner_gens = [m for m in gap
                  if all(m & ~(1 << j) not in gapset for j in range(n) if m >> j & 1)]
    return SqQuotient(n, SqIdeal.of(n, inner_gens), outer)


# ---------------------------------------------------------------- strategies

@st.composite
def nested_pairs(draw, max_n=8):
    """A quotient of nested squarefree ideals over n <= max_n."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    masks = st.integers(min_value=0, max_value=(1 << n) - 1)
    outer = SqIdeal.of(n, draw(st.lists(masks, max_size=5)))
    extra = draw(st.lists(st.tuples(masks, masks), max_size=5))
    inner = SqIdeal.of(n, [outer.gen_masks[i % len(outer.gen_masks)] | m
                           for i, m in extra] if outer.gen_masks else [])
    return SqQuotient(n, inner, outer)


@st.composite
def families(draw, max_n=6):
    n = draw(st.integers(min_value=0, max_value=max_n))
    return n, draw(st.sets(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=12))


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "ValueError", str(exc)


# ---------------------------------------------------------------- the words

class TestWords:
    def test_round_trip(self):
        assert word_masks(family_word([5, 0, 3])) == (0, 3, 5)
        assert word_masks(0) == ()
        assert full_word(2) == 0b1111

    def test_closures_and_steps(self):
        # n = 2, family {{1}}
        w = family_word([0b01])
        assert word_masks(up_closure(w, 2)) == (0b01, 0b11)
        assert word_masks(down_closure(w, 2)) == (0b00, 0b01)
        assert word_masks(one_larger(w, 2)) == (0b11,)
        assert word_masks(one_smaller(w, 2)) == (0b00,)
        assert up_closure(1, 0) == 1

    def test_element_steps_match_the_division_formula(self):
        # the lacking-bit words as they were built before, by big-int
        # division of the full word
        for n in range(21):
            full = full_word(n)
            assert setcalc._element_steps(n) == tuple(
                (step, full // ((1 << (step << 1)) - 1) * ((1 << step) - 1))
                for step in (1 << j for j in range(n)))

    @given(st.integers(min_value=0, max_value=7), st.data())
    def test_closures_match_sweeps(self, n, data):
        masks = data.draw(st.sets(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=8))
        w = family_word(masks)
        assert word_masks(up_closure(w, n)) == tuple(
            x for x in range(1 << n) if any(m & ~x == 0 for m in masks))
        assert word_masks(down_closure(w, n)) == tuple(
            x for x in range(1 << n) if any(x & ~m == 0 for m in masks))
        full = (1 << n) - 1
        assert word_masks(complement_family(w, n)) == tuple(sorted(full ^ m for m in masks))

    @given(st.integers(min_value=0, max_value=6), st.data())
    def test_cone_word_matches_sweep(self, n, data):
        masks = data.draw(st.sets(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=24))
        cones = tuple(
            sigma for sigma in range(1 << n)
            if any(all((u in masks) == (u | 1 << v in masks)
                       for u in range(1 << n) if u & ~(sigma & ~(1 << v)) == 0)
                   for v in range(n) if sigma >> v & 1))
        assert word_masks(cone_word(family_word(masks), n)) == cones


class TestAgainstSweeps:
    @settings(max_examples=150, deadline=None)
    @given(nested_pairs())
    def test_quotient(self, q):
        supp = q.support_masks()
        assert supp == ref_support_masks(q)
        assert q.support_word == family_word(supp)
        assert q.facet_masks() == ref_facet_masks(q)
        assert q.minimal_masks() == ref_minimal_masks(q)
        assert outcome(SqQuotient.from_support, q.n, supp) == outcome(ref_from_support, q.n, supp)

    @settings(max_examples=100, deadline=None)
    @given(nested_pairs(max_n=6))
    def test_facet_peel(self, q):
        steps = facet_peel_filtration(q).steps
        assert [s.degree.mask for s in steps] == ref_peel_order(q)

    @settings(max_examples=150, deadline=None)
    @given(nested_pairs())
    def test_ideal(self, q):
        for ideal in (q.inner, q.outer):
            if ideal.is_unit:
                continue
            assert sr_complex(ideal).facet_masks() == ref_sr_facet_masks(ideal)
            assert tilde(ideal) == ref_tilde(ideal)

    @settings(max_examples=200, deadline=None)
    @given(families())
    def test_from_support_any_family(self, family):
        # mostly non-convex families: the error and its witness must match
        n, masks = family
        assert outcome(SqQuotient.from_support, n, masks) == outcome(ref_from_support, n, masks)

    @given(st.integers(min_value=0, max_value=6), st.data())
    def test_minimal_nonfaces(self, n, data):
        raw = data.draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=4))
        cx = SimplicialComplex.from_facets(n, [IndexSet(n, m) for m in raw])
        assert minimal_nonface_masks(cx) == ref_minimal_nonface_masks(cx)


class TestSupportCache:
    @given(nested_pairs(max_n=5), nested_pairs(max_n=5))
    def test_cached_tuple_per_instance(self, a, b):
        supp = a.support_masks()
        assert type(supp) is tuple
        assert a.support_masks() is supp
        # an equal module built afresh computes its own, equal, support
        again = SqQuotient(a.n, a.inner, a.outer)
        assert again.support_masks() == supp
        if a != b:
            assert b.support_masks() == ref_support_masks(b)
            if supp:
                assert b.support_masks() is not supp
        assert a.support_masks() == ref_support_masks(a)

    def test_cap_is_not_cached_away(self):
        big = SqQuotient(21, SqIdeal.of(21, []), SqIdeal.of(21, [0]))
        for _ in range(2):
            with pytest.raises(CapExceededError):
                big.support_masks()


# ---------------------------------------------------------------- the searches

def max_ideal_mod(n):
    return SqQuotient(n, SqIdeal.of(n, []), SqIdeal.of(n, [1 << j for j in range(n)]))


def test_search_memo_freed_on_return():
    module = max_ideal_mod(5)
    module.facet_masks()
    gc.collect()
    gc.disable()
    try:
        sdepth(module)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.fixture
def probe_count(monkeypatch):
    calls = []
    search = sqmod.first_interval_partition

    def counted(support, tops_for):
        calls.append(None)
        return search(support, tops_for)

    monkeypatch.setattr(sqmod, "first_interval_partition", counted)
    return calls


@pytest.mark.parametrize("search, module, value, probes", [
    # m at n=4: the level counts rule out sdepth 4 and 3, so the one probe
    # is at 2; hreg_min's bound 1 is feasible at once
    (sdepth, max_ideal_mod(4), 2, 1),
    (hreg_min, max_ideal_mod(4), 1, 1),
    # the bound is the answer: support {0} for sdepth, {[n]} for hreg_min
    (sdepth, SqQuotient.from_support(4, [0]), 0, 1),
    (hreg_min, SqQuotient.from_support(4, [15]), 4, 1),
])
def test_last_feasible_probe_is_the_witness(probe_count, max_bottom, search, module, value,
                                            probes):
    got, dec = search(module)
    assert got == value
    assert len(probe_count) == probes
    pairs = (sqmod._level_cover(module.support_masks(), value) if search is sdepth
             else max_bottom(module, value))
    assert dec == StanleyDecomposition.from_masks(module.n, pairs)
