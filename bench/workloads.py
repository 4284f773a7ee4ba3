"""The benchmark's workloads: inputs from a seed, one round of
operations, and the oracle checks of a round's outputs.

Operations call sqstanley through module attributes looked up at call
time (survey.survey_module, not a name imported once), so that the
traced run sees the wrapped entry points.
"""

import random
from dataclasses import dataclass
from typing import Callable

import oracles
from sqstanley import exterior, filtration, formats, homology, instances, partition, sqmod, survey
from sqstanley.ideals import SqIdeal
from sqstanley.setcalc import IndexSet, SimplicialComplex

# Nonzero quotients of nested squarefree ideals in 4 variables.
QUOTIENTS_N4 = 7413
# Bands L[d, e] at these n, each searched by sdepth and by hreg_min,
# except for the n = 6 bands on which hreg_min does not finish.
BAND_NS = (5, 6)
HREG_UNFINISHED = {(6, d, e) for d, e in ((0, 3), (0, 4), (0, 5), (1, 3),
                                          (1, 4), (1, 5), (2, 4), (2, 5))}
# betti-wide: Veronese ideals I_{n,d}, and per n this many random pure
# complexes with this many facets of this size.
BETTI_NS = (9, 10)
VERONESE_DS = (2, 3)
COMPLEXES = 6
FACETS = 6
FACET_SIZE = 5


@dataclass
class Plan:
    """One round of a workload.

    ops are zero-argument callables, one per operation.  check takes the
    round's results (None where an operation raised) and raises
    oracles.OracleError on the first wrong output.
    """

    ops: list
    check: Callable


def _shuffled(items, seed):
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


def _gens(module):
    return module.inner.gen_masks, module.outer.gen_masks


def _pairs(dec):
    return [(iv.bottom.mask, iv.top.mask) for iv in dec.intervals]


def survey_duality_n4(seed):
    """Every nonzero quotient at n = 4, in seeded order.  One operation
    is one module: its survey record, serialized as the CLI does, then
    the paper's statements on it: the facet-peel prime filtration, its
    validation and its dual, and the sdepth witness carried to the
    exterior algebra and dualized there."""
    enumerated = list(instances.all_quotients(4))
    modules = _shuffled(enumerated, seed)

    def op(module):
        row = survey.survey_module(module).row()
        text = formats.dump_json(row)
        filt = filtration.facet_peel_filtration(module)
        valid = filtration.validate_filtration(module, filt)
        dual_filt = filtration.dualize_filtration(filt)
        s, witness = sqmod.sdepth(module)
        pieces = exterior.s_to_e_decomposition(witness)
        dual_pieces, signs = exterior.edual_decomposition(pieces)
        return row, text, (filt, valid, dual_filt, s, witness, pieces, dual_pieces, signs)

    def steps(filt):
        return [(st.degree.mask, st.prime.mask) for st in filt.steps]

    def plain(dec):
        return [(p.start.mask, p.free.mask) for p in dec.pieces]

    def check(results):
        oracles.check_module_set(4, [_gens(m) for m in enumerated], QUOTIENTS_N4)
        for module, got in zip(modules, results):
            if got is None:
                continue
            row, text, (filt, valid, dual_filt, s, witness, pieces, dual_pieces, signs) = got
            oracles.check_survey_row(4, *_gens(module), row, text)
            oracles.check_duality(4, *_gens(module), steps(filt), valid, steps(dual_filt), s,
                                  _pairs(witness), plain(pieces), plain(dual_pieces), signs)

    return Plan([lambda m=m: op(m) for m in modules], check)


def cover_deep(seed):
    """Every band is fixed by every relabeling of the variables, so the
    seed changes nothing here.  The searches also keep one order: a
    search's memo outlives it until the cycle collector runs, so peak
    memory depends on which searches precede the largest ones."""
    bands = [(n, d, e) for n in BAND_NS for d in range(n + 1) for e in range(d, n + 1)]
    modules = {b: sqmod.SqQuotient.from_support(b[0], oracles.band(*b)) for b in bands}
    searches = ([("sdepth", *b) for b in bands]
                + [("hreg", *b) for b in bands if b not in HREG_UNFINISHED])

    def op(kind, band):
        search = sqmod.sdepth if kind == "sdepth" else sqmod.hreg_min
        return search(modules[band])

    def check(results):
        values = {}
        for key, got in zip(searches, results):
            if got is not None:
                value, dec = got
                oracles.check_search(*key, value, _pairs(dec))
                values[key] = value
        oracles.check_hreg_duality(values)

    return Plan([lambda k=k: op(k[0], k[1:]) for k in searches], check)


def betti_wide(seed):
    """Veronese ideals I_{n,d} as modules I/0, and face rings of seeded
    random pure complexes; each module and its Alexander dual get a
    table.  Inputs are kept with the support they are defined by."""
    rng = random.Random(seed)
    inputs = []
    for n in BETTI_NS:
        for d in VERONESE_DS:
            level = [m for m in range(1 << n) if m.bit_count() == d]
            module = sqmod.SqQuotient(n, SqIdeal.of(n, []), SqIdeal.of(n, level))
            inputs.append((f"I_{n},{d}", module, oracles.band(n, d, n), d))
        for k in range(COMPLEXES):
            facets = [sum(1 << j for j in rng.sample(range(n), FACET_SIZE))
                      for _ in range(FACETS)]
            cx = SimplicialComplex.from_facets(n, [IndexSet(n, f) for f in facets])
            inputs.append((f"face ring {k} n={n}", partition.face_ring(cx),
                           oracles.faces(n, facets), None))
    tables = _shuffled([(i, dual) for i in range(len(inputs)) for dual in (False, True)], seed)

    def op(i, dual):
        module = inputs[i][1]
        return homology.betti(sqmod.dualize_quotient(module) if dual else module)

    def check(results):
        got = {key: r.entries for key, r in zip(tables, results) if r is not None}
        for i, (label, module, family, d) in enumerate(inputs):
            n = module.n
            primal, dual = got.get((i, False)), got.get((i, True))
            if primal is not None:
                oracles.check_betti(n, family, primal, label, d)
            if dual is not None:
                oracles.check_betti(n, oracles.complement(n, family), dual, f"dual of {label}")
            if primal is not None and dual is not None:
                oracles.check_terai(primal, dual, label)
                oracles.check_terai(dual, primal, f"dual of {label}")

    return Plan([lambda k=k: op(*k) for k in tables], check)


WORKLOADS = {
    "survey-duality-n4": survey_duality_n4,
    "cover-deep": cover_deep,
    "betti-wide": betti_wide,
}
# Workloads that BENCHMARK.json leaves out, to be run by hand.  A set of
# benchmark runs has a fixed time budget; two workloads with long runs
# hold steadier on a noisy machine than three with short ones.
BY_HAND = ("betti-wide",)
