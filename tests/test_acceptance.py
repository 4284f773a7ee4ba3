"""End-to-end acceptance runs for every capability, with timing limits.

Each test sweeps one capability over exhaustive small instances or a
seeded random sample, asserts the mathematical claim on every instance,
and prints a single PASS line with the elapsed time.  Run with -s to see
the lines; the stated time limits are asserted, not just reported.
"""

import itertools
import random
import time

import pytest

from sqstanley.errors import NonSquarefreeError
from sqstanley.exterior import (
    ExtElement,
    dual_right_mul,
    edual_decomposition,
    e_to_s_decomposition,
    pairing,
    s_to_e_decomposition,
    theta,
    theta_monomial,
    to_exterior,
    wedge,
)
from sqstanley.filtration import (
    dualize_filtration,
    facet_peel_filtration,
    validate_filtration,
)
from sqstanley.formats import dump_json
from sqstanley.homology import eagon_reiner_check, invariants, terai_check
from sqstanley.ideals import Monomial, MonomialIdeal, SqIdeal
from sqstanley.instances import (
    all_complexes,
    all_quotients,
    proper_nonzero_ideals,
    random_quotient,
)
from sqstanley.linquot import _order_decomposition, linear_quotients_order
from sqstanley.partition import partition_duality_check
from sqstanley.setcalc import IndexSet, sigma_masks
from sqstanley.sqmod import (
    SqQuotient,
    build_quotient,
    dualize_decomposition,
    dualize_quotient,
    hreg_min,
    sdepth,
    validate_decomposition,
)
from sqstanley.survey import counterexamples, survey_exhaustive, survey_random


def submasks(mask):
    out = []
    s = mask
    while True:
        out.append(s)
        if s == 0:
            return out
        s = (s - 1) & mask


@pytest.fixture(scope="module")
def quotient_sweep():
    # the per-n counts double as an oracle on the enumeration itself
    sweep = {n: list(all_quotients(n)) for n in (1, 2, 3, 4)}
    assert [len(sweep[n]) for n in (1, 2, 3, 4)] == [3, 14, 148, 7413]
    return sweep


def report(label, elapsed, extra=""):
    tail = f", {extra}" if extra else ""
    print(f"PASS {label} ({elapsed:.2f}s{tail})")


def test_c01_mixed_pair_support():
    inner = MonomialIdeal.of(3, [Monomial.of(2, 0, 0), Monomial.of(1, 1, 0)])
    outer = MonomialIdeal.of(3, [Monomial.of(2, 0, 0), Monomial.of(1, 1, 0),
                                 Monomial.of(0, 1, 1)])
    for _ in range(10):
        build_quotient(inner, outer)
    best = min(
        (lambda t0: (build_quotient(inner, outer), time.perf_counter() - t0))(
            time.perf_counter())[1]
        for _ in range(5))
    module = build_quotient(inner, outer)
    assert module.support_masks() == (0b110,)
    assert best < 0.001

    bad_inner = MonomialIdeal.of(3, [Monomial.of(2, 0, 0), Monomial.of(0, 1, 1)])
    with pytest.raises(NonSquarefreeError) as e:
        build_quotient(bad_inner, outer)
    assert "x1^2" in str(e.value) and "x1*x2" in str(e.value)
    report("c01 mixed-degree pair has squarefree support {2,3}; "
           "witness pair rejected", best, f"{best * 1e6:.0f}us per build")


def test_c02_decomposition_duality(quotient_sweep):
    t0 = time.perf_counter()
    checked = 0
    for n, modules in quotient_sweep.items():
        for m in modules:
            s, dec = sdepth(m)
            assert validate_decomposition(m, dec)
            dual = dualize_quotient(m)
            assert validate_decomposition(dual, dualize_decomposition(dec))
            assert dualize_quotient(dual).support_masks() == m.support_masks()
            assert hreg_min(dual)[0] == n - s
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    report("c02 dualized decompositions validate, double dual is the "
           "identity, dual hreg is n - sdepth", elapsed,
           f"{checked} modules through n=4")


def test_c03_filtration_duality(quotient_sweep):
    t0 = time.perf_counter()
    checked = 0
    for modules in quotient_sweep.values():
        for m in modules:
            filt = facet_peel_filtration(m)
            assert validate_filtration(m, filt)
            assert validate_filtration(dualize_quotient(m),
                                       dualize_filtration(filt))
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    report("c03 facet-peel prime filtrations validate and dualize "
           "step by step", elapsed, f"{checked} modules through n=4")


def test_c04_transfer_presentation_independent():
    rng = random.Random(20260822)
    t0 = time.perf_counter()
    for _ in range(1000):
        n = rng.randint(1, 8)
        m = random_quotient(rng, n)
        emod = to_exterior(m)
        f = rng.choice(emod.support_masks())
        eligible = [g for g in emod.generator_masks() if g & ~f == 0]
        k = rng.randint(1, 3)
        picks = [rng.choice(eligible) for _ in range(k)]
        coeffs = [rng.randint(-3, 3) for _ in range(k)]
        coeffs[-1] += 1 - sum(coeffs)
        got = theta(emod, IndexSet(n, f),
                    [(a, IndexSet(n, g)) for a, g in zip(coeffs, picks)])
        assert got == ExtElement.basis(n, f)
        assert got == theta_monomial(emod, IndexSet(n, f))
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    report("c04 exterior transfer is presentation independent and "
           "lands on the basis class", elapsed, "1000 seeded modules, n <= 8")


def test_c05_exterior_dual_signs(quotient_sweep):
    t0 = time.perf_counter()
    checked = 0
    for n, modules in quotient_sweep.items():
        full = (1 << n) - 1
        for m in modules:
            emod = to_exterior(m)
            edec = s_to_e_decomposition(sdepth(m)[1])
            dual, signs = edual_decomposition(edec)
            back, _ = edual_decomposition(dual)
            assert back == edec
            assert validate_decomposition(dualize_quotient(m),
                                          e_to_s_decomposition(dual))
            by_top = {full ^ p.start.mask: s for p, s in zip(dual.pieces, signs)}
            for p in edec.pieces:
                top = p.start.mask | p.free.mask
                b = by_top[top] * ExtElement.basis(n, top)
                gen = emod.mul_right(emod.basis_class(p.start.mask),
                                     ExtElement.basis(n, p.free.mask))
                assert pairing(b, gen) == 1
                for h in submasks(p.free.mask):
                    stepped = dual_right_mul(emod, b, ExtElement.basis(n, h))
                    assert len(stepped.items) == 1
                    mask, c = stepped.items[0]
                    assert mask == top & ~h and c in (1, -1)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    report("c05 exterior dual decompositions carry signs verified by "
           "brute-force pairing", elapsed, f"{checked} modules through n=4")


def test_c06_projdim_equals_dual_reg(quotient_sweep):
    t0 = time.perf_counter()
    checked = 0
    for modules in quotient_sweep.values():
        for m in modules:
            assert terai_check(m).ok
            checked += 1
    rng = random.Random(32003)
    for _ in range(500):
        m = random_quotient(rng, 5)
        assert terai_check(m, char=32003).ok
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    report("c06 projective dimension equals regularity of the dual "
           "module", elapsed, f"{checked} modules, exhaustive n<=4 "
           "plus 500 random n=5 in char 32003")


def test_c07_cohen_macaulay_dual_linear():
    t0 = time.perf_counter()
    checked = 0
    for n in (1, 2, 3, 4, 5):
        for cx in all_complexes(n):
            assert eagon_reiner_check(cx).ok
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    report("c07 Cohen-Macaulay complexes are exactly those with a "
           "linearly resolved dual ideal", elapsed,
           f"all {checked} complexes through n=5")


def test_c08_linear_quotients_depth():
    t0 = time.perf_counter()
    lq_count = 0
    total = 0
    for n in (1, 2, 3, 4, 5):
        for ideal in proper_nonzero_ideals(n):
            total += 1
            order = linear_quotients_order(ideal)
            if order is None:
                continue
            lq_count += 1
            # one search per ideal, built into a decomposition as the
            # linquot command does
            dec = _order_decomposition(ideal, order)
            assert dec.sdepth == n - order.r
            module = SqQuotient(n, SqIdeal.of(n, []), ideal)
            assert invariants(module).depth == n - order.r
    assert (lq_count, total) == (7093, 7768)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    report("c08 linear-quotients decompositions have Stanley depth "
           "n - r, equal to depth", elapsed,
           f"{lq_count} of {total} ideals through n=5 have linear quotients")


def test_c09_partitionability_duality():
    t0 = time.perf_counter()
    checked = 0
    for n in (1, 2, 3, 4):
        for cx in all_complexes(n):
            rec = partition_duality_check(cx)
            assert rec.ok
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    report("c09 partitionability matches generator-bottom decompositions "
           "of the dual module", elapsed, f"all {checked} complexes through n=4")


def test_c10_conjecture_survey():
    t0 = time.perf_counter()
    flagged = 0
    counts = []
    for n in (1, 2, 3, 4):
        records = survey_exhaustive(n)
        counts.append(len(records))
        flagged += len(counterexamples(records))
        assert all(r.sdepth_ge_depth for r in records)
    assert counts == [3, 14, 148, 7413]
    assert flagged == 0

    first = dump_json([r.row() for r in survey_random(5, 200, seed=7)])
    second = dump_json([r.row() for r in survey_random(5, 200, seed=7)])
    assert first == second
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    report("c10 hreg <= reg and sdepth >= depth hold on every instance; "
           "seeded reruns are byte identical", elapsed,
           f"exhaustive n<=4 ({sum(counts)} records) plus 200 random n=5, "
           "0 counterexamples")


def test_c11_sign_calculus():
    n = 6
    t0 = time.perf_counter()
    triples = 0
    for assignment in itertools.product((0, 1, 2, 3), repeat=n):
        a = b = c = 0
        for i, slot in enumerate(assignment):
            if slot == 1:
                a |= 1 << i
            elif slot == 2:
                b |= 1 << i
            elif slot == 3:
                c |= 1 << i
        assert sigma_masks(a | b, c) == sigma_masks(a, c) + sigma_masks(b, c)
        assert sigma_masks(a, b | c) == sigma_masks(a, b) + sigma_masks(a, c)
        assert (sigma_masks(a, b) + sigma_masks(b, a)) % 2 \
            == (bin(a).count("1") * bin(b).count("1")) % 2
        ea, eb, ec = (ExtElement.basis(n, m) for m in (a, b, c))
        assert wedge(wedge(ea, eb), ec) == wedge(ea, wedge(eb, ec))
        flip = -1 if bin(a).count("1") * bin(b).count("1") % 2 else 1
        assert wedge(ea, eb) == flip * wedge(eb, ea)
        triples += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    report("c11 wedge signs are associative, graded commutative, and "
           "additive over disjoint unions", elapsed,
           f"all {triples} disjoint triples in n=6")
