"""Linear quotient orderings and the Stanley decomposition they induce.

An ordering u_1, ..., u_m of the minimal generators has linear
quotients when each colon ideal (u_1, ..., u_{i-1}) : u_i is generated
by variables.  The search backtracks over orderings in canonical
generator order, memoizing sets of placed generators that cannot be
completed, so the first ordering found is deterministic.

The ordering search runs on arbitrary monomial ideals, each step one
`setcalc.colon_prime` test on the masks of their polarizations.  The
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
from .ideals import Monomial, SqIdeal
from .setcalc import colon_prime
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


def _polarize(ideal) -> tuple[tuple[Monomial, ...], list[int], list[int]]:
    """The generators, the masks of their polarizations, and where each
    variable's block of bits starts.

    The exponents of x_i that occur are ranked first, consecutive ones
    one apart and wider gaps two, so a block has at most two bits per
    generator, and at least one, so a squarefree ideal keeps its own
    masks.  The sets P(u_j) - P(u_i) still contain each other as the
    monomials u_j / gcd(u_j, u_i) divide each other, and are singletons
    exactly when those have degree one.
    """
    if isinstance(ideal, SqIdeal):
        gens = tuple(map(Monomial.from_support, ideal.gens))
        return gens, list(ideal.gen_masks), list(range(ideal.n + 1))
    gens = ideal.gens
    masks, starts = [0] * len(gens), [0]
    for i in range(ideal.n):
        values = sorted({0, *(g.exponents[i] for g in gens)})
        rank = {0: 0}
        for a, b in zip(values, values[1:]):
            rank[b] = rank[a] + (1 if b == a + 1 else 2)
        for j, g in enumerate(gens):
            masks[j] |= ((1 << rank[g.exponents[i]]) - 1) << starts[-1]
        starts.append(starts[-1] + max(1, rank[values[-1]]))
    return gens, masks, starts


def linear_quotients_order(ideal):
    """First linear quotients ordering in canonical order, or None.

    The search keeps one state, the placed generators with their masks
    and colons (each colon recorded as its step is placed), and pops
    all three on backtrack, so its depth is bounded by memory alone.
    """
    gens, masks, starts = _polarize(ideal)
    chosen, placed, colons, dead = [], [], [], set()
    used = i = 0
    while len(chosen) < len(masks):
        for i in range(i, len(masks)):
            if used >> i & 1 or used | 1 << i in dead:
                continue
            colon = colon_prime(placed, masks[i])
            if colon is not None:
                break
        else:
            dead.add(used)
            if not chosen:
                return None
            i = chosen.pop()
            placed.pop()
            colons.pop()
            used ^= 1 << i
            i += 1
            continue
        chosen.append(i)
        placed.append(masks[i])
        colons.append(colon)
        used |= 1 << i
        i = 0
    # x_k is a colon variable when the colon has a bit in its block
    blocks = [(1 << b) - (1 << a) for a, b in zip(starts, starts[1:])]
    colon_vars = tuple(sum(1 << k for k, block in enumerate(blocks) if f & block) for f in colons)
    return LinearQuotientsOrder(ideal.n, tuple(gens[i] for i in chosen), colon_vars)


def has_linear_quotients(ideal) -> bool:
    return linear_quotients_order(ideal) is not None


def lq_decomposition(ideal: SqIdeal) -> StanleyDecomposition:
    """Stanley decomposition of a squarefree ideal from linear quotients."""
    order = linear_quotients_order(ideal)
    if order is None:
        raise ValueError("ideal admits no linear quotients ordering")
    return _order_decomposition(ideal, order)


def _order_decomposition(ideal: SqIdeal, order: LinearQuotientsOrder) -> StanleyDecomposition:
    """The Stanley decomposition that a linear quotients order of the
    squarefree ideal induces.

    Step i covers the monomials u_i * k[variables outside the colon],
    so in squarefree degrees it covers the interval from supp(u_i) to
    the complement of the step's colon variables.  Every interval top
    has size n - r_i, hence the sdepth of the result is n - r.
    """
    n = ideal.n
    full = (1 << n) - 1
    dec = StanleyDecomposition.from_masks(
        n, ((g.support_mask, full ^ v) for g, v in zip(order.gens, order.colon_vars)))
    module = SqQuotient(n, SqIdeal.of(n, []), ideal)
    if not validate_decomposition(module, dec):
        raise InternalCheckError("linear quotients intervals do not partition the ideal")
    return dec
