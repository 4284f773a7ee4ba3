"""Linear quotient orderings and the Stanley decomposition they induce.

An ordering u_1, ..., u_m of the minimal generators has linear
quotients when each colon ideal (u_1, ..., u_{i-1}) : u_i is generated
by variables.  The search backtracks over orderings in canonical
generator order, memoizing sets of placed generators that cannot be
completed, so the first ordering found is deterministic.

The ordering search runs on arbitrary monomial ideals.  The
decomposition built from it lives in the squarefree world only: for a
squarefree ideal each step contributes the interval from the generator
support up to the complement of its colon variables, giving a Stanley
decomposition of the ideal with sdepth exactly n - r, where r is the
largest number of colon variables at any step.  For ideals with
non-squarefree generators the ordering and r are still reported, but
no interval decomposition is attempted here.
"""

from dataclasses import dataclass

from .errors import InternalCheckError
from .ideals import Monomial, MonomialIdeal, SqIdeal, minimalize
from .setcalc import Interval, IndexSet
from .sqmod import SqQuotient, StanleyDecomposition, validate_decomposition


@dataclass(frozen=True, slots=True)
class LinearQuotientsOrder:
    """A witness ordering together with the colon variables of each step."""

    n: int
    gens: tuple[Monomial, ...]
    colon_vars: tuple[int, ...]

    def __post_init__(self):
        if len(self.gens) != len(self.colon_vars):
            raise ValueError("one colon variable mask per generator expected")

    @property
    def r(self) -> int:
        return max((v.bit_count() for v in self.colon_vars), default=0)

    def __str__(self) -> str:
        steps = ", ".join(str(g) for g in self.gens)
        return f"[{steps}] with r = {self.r}"


def _as_monomials(ideal) -> tuple[int, tuple[Monomial, ...]]:
    if isinstance(ideal, SqIdeal):
        gens = tuple(Monomial.from_support(IndexSet(ideal.n, m))
                     for m in ideal.gen_masks)
        return ideal.n, gens
    return ideal.n, ideal.gens


def _colon_variable_mask(placed, u):
    """Mask of the variables generating (placed) : u, or None if that
    colon has a minimal generator of degree at least two."""
    quotients = minimalize([g.quotient_by(u) for g in placed])
    mask = 0
    for q in quotients:
        if q.degree != 1:
            return None
        mask |= q.support_mask
    return mask


def linear_quotients_order(ideal):
    """First linear quotients ordering in canonical order, or None."""
    n, gens = _as_monomials(ideal)
    m = len(gens)
    chosen = []
    vars_masks = []
    dead = set()

    def extend(used):
        if len(chosen) == m:
            return True
        if used in dead:
            return False
        for i in range(m):
            if i in used:
                continue
            mask = _colon_variable_mask([gens[j] for j in chosen], gens[i])
            if mask is None:
                continue
            chosen.append(i)
            vars_masks.append(mask)
            if extend(used | {i}):
                return True
            chosen.pop()
            vars_masks.pop()
        dead.add(used)
        return False

    try:
        if not extend(frozenset()):
            return None
    finally:
        # extend's closure refers to extend itself; break that cycle so
        # the memo is freed on return, not at the next collection
        extend = None
    return LinearQuotientsOrder(n, tuple(gens[i] for i in chosen),
                                tuple(vars_masks))


def has_linear_quotients(ideal) -> bool:
    return linear_quotients_order(ideal) is not None


def lq_decomposition(ideal: SqIdeal) -> StanleyDecomposition:
    """Stanley decomposition of a squarefree ideal from linear quotients.

    Step i covers the monomials u_i * k[variables outside the colon],
    so in squarefree degrees it covers the interval from supp(u_i) to
    the complement of the step's colon variables.  Every interval top
    has size n - r_i, hence the sdepth of the result is n - r.
    """
    order = linear_quotients_order(ideal)
    if order is None:
        raise ValueError("ideal admits no linear quotients ordering")
    n = ideal.n
    full = (1 << n) - 1
    intervals = [Interval(IndexSet(n, g.support_mask), IndexSet(n, full ^ v))
                 for g, v in zip(order.gens, order.colon_vars)]
    dec = StanleyDecomposition.of(n, intervals)
    module = SqQuotient(n, SqIdeal.of(n, []), ideal)
    if not validate_decomposition(module, dec):
        raise InternalCheckError("linear quotients intervals do not partition the ideal")
    return dec
