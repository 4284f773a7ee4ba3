"""Prime filtrations of squarefree quotients.

A filtration is recorded by its base ideal and an ascending list of
steps: step i adjoins the generator x_G to the previous ideal, and the
quotient of consecutive ideals is the shifted prime quotient S/P_F(-G),
which happens exactly when the colon of the previous ideal by x_G is
the prime generated by the variables in F.

Peeling maximal support members always yields such a filtration: a
maximal member G of what remains has every one-step extension already
in the current ideal, so the colon collapses to the prime of the
complement of G.  Peeled members are adjoined in peel order, smallest
maximal member first.
"""

from dataclasses import dataclass

from .errors import InternalCheckError, NMismatchError
from .ideals import SqIdeal
from .setcalc import IndexSet, Interval, one_smaller
from .sqmod import (
    SqQuotient,
    StanleyDecomposition,
    dualize_quotient,
    tilde_ext,
)


@dataclass(frozen=True)
class FiltrationStep:
    """One step: adjoin x_degree, with step quotient S/P_prime(-degree)."""

    degree: IndexSet
    prime: IndexSet

    def __post_init__(self):
        if self.degree.n != self.prime.n:
            raise NMismatchError(
                f"step degree over n={self.degree.n}, prime over n={self.prime.n}")
        if not self.degree.isdisjoint(self.prime):
            raise ValueError(
                f"degree {self.degree} meets prime support {self.prime}; "
                "the step quotient would vanish")

    @property
    def n(self) -> int:
        return self.degree.n

    def __str__(self) -> str:
        return f"({self.degree}, {self.prime})"


@dataclass(frozen=True)
class PrimeFiltration:
    n: int
    base: SqIdeal
    steps: tuple[FiltrationStep, ...]

    def __post_init__(self):
        if self.base.n != self.n:
            raise NMismatchError(f"base over n={self.base.n} in filtration over n={self.n}")
        for s in self.steps:
            if s.n != self.n:
                raise NMismatchError(f"step over n={s.n} in filtration over n={self.n}")

    def final_ideal(self) -> SqIdeal:
        return SqIdeal.of(self.n, self.base.gen_masks
                          + tuple(s.degree.mask for s in self.steps))

    def module(self) -> SqQuotient:
        return SqQuotient(self.n, self.base, self.final_ideal())

    def __len__(self) -> int:
        return len(self.steps)

    def __str__(self) -> str:
        return "[" + ", ".join(str(s) for s in self.steps) + "]"


def validate_filtration(module: SqQuotient, filt: PrimeFiltration) -> bool:
    """Whether the filtration presents the module, step quotients included.

    Checks that the chain starts at the inner ideal, that each colon is
    exactly the claimed prime, and that the chain ends at the outer
    ideal.  The step quotients then have the stated form, one support
    member per interval of the chain.

    For any generating set of the current ideal, (cur : x_G) is
    generated by the sets H minus G, so it equals P_F exactly when each
    of those meets F and each j in F is one of them.  The chain is kept
    as its growing, unminimized generator list.
    """
    if module.n != filt.n:
        raise NMismatchError(f"filtration over n={filt.n} for module over n={module.n}")
    if filt.base != module.inner:
        return False
    gens = list(filt.base.gen_masks)
    for s in filt.steps:
        g, f = s.degree.mask, s.prime.mask
        colon = {h & ~g for h in gens}
        if any(not c & f for c in colon):
            return False
        if any(1 << j not in colon for j in range(filt.n) if f >> j & 1):
            return False
        gens.append(g)
    return filt.final_ideal() == module.outer


def facet_peel_filtration(module: SqQuotient) -> PrimeFiltration:
    """The filtration obtained by peeling maximal support members.

    Ties among maximal members go to the smallest in colex.  The prime
    at each step is the complement of the peeled member; the zero module
    gets the empty filtration.
    """
    n = module.n
    full = (1 << n) - 1
    # what remains stays order convex, so its maximal members are those
    # with no member one element larger
    remaining = module.support_word
    steps = []
    while remaining:
        maximal = remaining & ~one_smaller(remaining, n)
        peel = (maximal & -maximal).bit_length() - 1
        steps.append(FiltrationStep(IndexSet(n, peel), IndexSet(n, full ^ peel)))
        remaining ^= 1 << peel
    return PrimeFiltration(n, module.inner, tuple(steps))


def dualize_filtration(filt: PrimeFiltration) -> PrimeFiltration:
    """The filtration of the dual module: steps reversed with degree and
    prime exchanged, base the dual of the final ideal.

    Validity carries over: adjoining x_G with colon P_F corresponds,
    after dualizing, to adjoining x_F with colon P_G one level down the
    reversed chain.  That is checked here on every call.
    """
    final = filt.final_ideal()
    dual_steps = tuple(FiltrationStep(s.prime, s.degree) for s in reversed(filt.steps))
    dual = PrimeFiltration(filt.n, tilde_ext(final), dual_steps)
    module = SqQuotient(filt.n, filt.base, final)
    if not validate_filtration(dualize_quotient(module), dual):
        raise InternalCheckError("dualized filtration fails validation")
    return dual


def filtration_to_decomposition(filt: PrimeFiltration) -> StanleyDecomposition:
    """The Stanley decomposition read off a filtration.

    Step S/P_F(-G) contributes the squarefree degrees in the interval
    from G to the complement of F; for a valid filtration these
    intervals partition the support.  Peel filtrations give singleton
    intervals only.
    """
    return StanleyDecomposition.of(
        filt.n, (Interval(s.degree, s.prime.complement()) for s in filt.steps))
