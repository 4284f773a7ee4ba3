"""Multigraded Betti numbers and the duality statements built on them.

Betti numbers of a squarefree quotient are computed degree by degree
from the Koszul complex: in squarefree degree sigma, homological level
i has one basis vector for each i-subset T of sigma whose complement
inside sigma lies in the support, the differential sends T to its
one-smaller subsets with alternating signs whenever the moved variable
keeps the module part alive, and the Betti number is the homology
dimension.

Most degrees need no matrix at all.  The support is read as a family
word (see setcalc), and the degrees worth visiting are found for all
sigma at once:

- sigma must contain a support member, so it lies in the up-closure of
  the word;
- sigma is a cone in direction v, for a v in sigma, when toggling v
  never moves a subset of sigma into or out of the support; its
  complex is then exact and every Betti number in degree sigma is 0.
  setcalc.cone_word finds every such sigma with one up-closure per
  variable.

A visited degree builds one basis per nonempty level and ranks the
boundary map between each pair of adjacent nonempty levels, so a degree
whose support members inside sigma all have one size takes no rank and
its Betti number is the member count.  Ranks are taken by sparse
elimination over a prime field, or over the rationals when the
characteristic is zero; any other characteristic is refused.

The complex in degree sigma depends only on sigma, on the support
members inside sigma and on the characteristic, and few such patterns
recur across degrees, modules and duals: the 14,826 tables of the n = 4
modules and their duals visit 105,106 degrees but only 3,937 patterns.
So for n <= 6 (setcalc.keeps_tables) a degree's Betti numbers come from
one memo, _degree_betti, keyed by sigma, the word of the support members
inside sigma (below 2^64) and the characteristic, and bounded at
_DEGREE_MEMO entries, least recently used dropped first.  Above n = 6
every degree is ranked afresh.

On top of the table: regularity, projective dimension, depth through
the Auslander-Buchsbaum formula, Krull dimension from the support
facets, Cohen-Macaulayness, and linearity of the resolution.  The
checks at the bottom pair a module with its Alexander dual and report
whether the classical dualities hold for it.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InternalCheckError, ZeroModuleError
from .setcalc import (IndexSet, SimplicialComplex, cone_word, keeps_tables, up_closure,
                      word_masks)
from .sqmod import SqQuotient, _sdepth_walk, dualize_quotient, face_ring

DEFAULT_CHAR = 32003
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def check_char(char: int) -> None:
    """Refuse a field characteristic that is neither 0 nor a prime below
    2^64."""
    if not (isinstance(char, int) and not isinstance(char, bool)
            and (char == 0 or 2 <= char < 1 << 64 and _is_prime(char))):
        raise ValueError(f"characteristic must be 0 or a prime below 2^64, got {char!r}")


# behind check_char's type test: lru_cache may take 32003.0 or True for
# the int they equal
@lru_cache(maxsize=16)
def _is_prime(p: int) -> bool:
    """Miller-Rabin over the bases 2 to 37, which is exact for every p
    from 2 to far beyond 2^64 and costs a dozen modular powers."""
    if p in _PRIME_BASES:
        return True
    d, s = p - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _rank(rows, char):
    """Row rank of a small integer matrix over F_char, or over the
    rationals when char is 0.

    The rows are equal-length lists of ints.  Each is eliminated as a
    sparse dict {column: entry} against the pivot rows found so far,
    which are kept normalised to lead 1 with the lead column left out.
    """
    if not rows or not rows[0]:
        return 0
    full = min(len(rows), len(rows[0]))
    pivots = {}
    for dense in rows:
        if char:
            row = {c: x % char for c, x in enumerate(dense) if x % char}
        else:
            row = {c: Fraction(x) for c, x in enumerate(dense) if x}
        while row:
            col = min(row)
            lead = row.pop(col)
            piv = pivots.get(col)
            if piv is None:
                if len(pivots) + 1 == full:
                    return full
                inv = pow(lead, -1, char) if char else 1 / lead
                pivots[col] = {c: x * inv % char if char else x * inv
                               for c, x in row.items()}
                break
            for c, x in piv.items():
                y = (row.get(c, 0) - lead * x) % char if char else row.get(c, 0) - lead * x
                if y:
                    row[c] = y
                else:
                    row.pop(c, None)
    return len(pivots)


@dataclass(frozen=True, slots=True)
class BettiTable:
    """Nonzero multigraded Betti numbers as (level, degree mask, value)."""

    n: int
    char: int
    entries: tuple[tuple[int, int, int], ...]

    def value(self, i: int, mask: int) -> int:
        for level, m, v in self.entries:
            if level == i and m == mask:
                return v
        return 0

    @property
    def is_empty(self) -> bool:
        return not self.entries

    @property
    def projdim(self) -> int:
        if self.is_empty:
            raise ZeroModuleError("empty Betti table")
        return max(i for i, _, _ in self.entries)

    @property
    def reg(self) -> int:
        if self.is_empty:
            raise ZeroModuleError("empty Betti table")
        return max(m.bit_count() - i for i, m, _ in self.entries)

    def generator_masks(self) -> tuple[int, ...]:
        return tuple(m for i, m, _ in self.entries if i == 0)

    def total(self, i: int) -> int:
        return sum(v for level, _, v in self.entries if level == i)

    def __str__(self) -> str:
        lines = [f"b_{i} {IndexSet(self.n, m)} = {v}" for i, m, v in self.entries]
        return "\n".join(lines) if lines else "(zero table)"


# Entries of the per-degree memo: all n <= 4 modules and their duals in
# three characteristics fill 11,811.
_DEGREE_MEMO = 1 << 14


def _sub(sigma: int) -> int:
    """The word of the subsets of sigma: one shift-or per element."""
    word = 1
    while sigma:
        low = sigma & -sigma
        sigma ^= low
        word |= word << low
    return word


@lru_cache(maxsize=_DEGREE_MEMO)
def _degree_betti(sigma: int, local: int, char: int) -> tuple[tuple[int, int], ...]:
    """_degree, memoized.  local is the word of the support members
    inside sigma; with sigma and char it fixes the degree's complex."""
    return _degree(sigma, word_masks(local), char)


def _degree(sigma: int, inside, char: int) -> tuple[tuple[int, int], ...]:
    """The nonzero (level, Betti number) pairs of degree sigma, given
    the support members inside sigma in increasing order."""
    bases = {}
    index = {}
    for u in inside:
        t = sigma ^ u
        lst = bases.setdefault(t.bit_count(), [])
        index[t] = len(lst)
        lst.append(t)
    ranks = {}
    for i, lst in bases.items():
        lower = bases.get(i - 1)
        if not lower:
            continue
        rows = []
        for t in lst:
            row = [0] * len(lower)
            rest = t
            while rest:
                low = rest & -rest
                rest ^= low
                col = index.get(t ^ low)
                if col is not None:
                    row[col] = -1 if (t & (low - 1)).bit_count() % 2 else 1
            rows.append(row)
        ranks[i] = _rank(rows, char)
    out = []
    for i, lst in bases.items():
        b = len(lst) - ranks.get(i, 0) - ranks.get(i + 1, 0)
        if b < 0:
            raise InternalCheckError("negative homology dimension")
        if b:
            out.append((i, b))
    return tuple(out)


def betti(module: SqQuotient, char: int = DEFAULT_CHAR) -> BettiTable:
    """The multigraded Betti table of the module over the chosen field.

    Raises ValueError when char is neither 0 nor a prime below 2^64."""
    check_char(char)
    n = module.n
    word = module.support_word
    # above the bound each degree is ranked afresh, its members found by
    # filtering the support, which is cheaper there than a 2^n-bit word
    members = None if keeps_tables(n) else word_masks(word)
    entries = []
    for sigma in word_masks(up_closure(word, n) & ~cone_word(word, n)):
        if members is None:
            pairs = _degree_betti(sigma, word & _sub(sigma), char)
        else:
            pairs = _degree(sigma, [u for u in members if u & sigma == u], char)
        entries.extend((i, sigma, b) for i, b in pairs)
    return BettiTable(n, char, tuple(sorted(entries)))


@dataclass(frozen=True, slots=True)
class InvariantReport:
    n: int
    char: int
    betti: BettiTable
    projdim: int
    reg: int
    depth: int
    dim: int
    cohen_macaulay: bool
    linear_resolution: bool

    def __str__(self) -> str:
        return (f"projdim={self.projdim} reg={self.reg} depth={self.depth} "
                f"dim={self.dim} CM={self.cohen_macaulay} "
                f"linear={self.linear_resolution}")


def invariants(module: SqQuotient, char: int = DEFAULT_CHAR) -> InvariantReport:
    """Homological invariants of a nonzero squarefree quotient.

    Depth comes from projective dimension by Auslander-Buchsbaum, Krull
    dimension is the largest facet of the support, and the resolution
    counts as linear when the module is generated in one degree and
    every Betti degree exceeds the level by exactly that amount.
    """
    if module.is_zero:
        raise ZeroModuleError("the zero module has no invariant report")
    table = betti(module, char)
    gens = table.generator_masks()
    sizes = {m.bit_count() for m in gens}
    linear = (len(sizes) == 1
              and all(m.bit_count() - i == next(iter(sizes))
                      for i, m, _ in table.entries))
    depth = module.n - table.projdim
    dim = max(m.bit_count() for m in module.facet_masks())
    return InvariantReport(
        n=module.n,
        char=char,
        betti=table,
        projdim=table.projdim,
        reg=table.reg,
        depth=depth,
        dim=dim,
        cohen_macaulay=depth == dim,
        linear_resolution=linear,
    )


@dataclass(frozen=True, slots=True)
class TeraiRecord:
    """Projective dimension of a module against regularity of its dual."""

    n: int
    projdim: int
    dual_reg: int

    @property
    def ok(self) -> bool:
        return self.projdim == self.dual_reg


def terai_check(module: SqQuotient, char: int = DEFAULT_CHAR) -> TeraiRecord:
    if module.is_zero:
        raise ZeroModuleError("the zero module has no Terai record")
    return TeraiRecord(
        n=module.n,
        projdim=betti(module, char).projdim,
        dual_reg=betti(dualize_quotient(module), char).reg,
    )


@dataclass(frozen=True, slots=True)
class EagonReinerRecord:
    """Cohen-Macaulayness of a complex against linearity of the dual ideal."""

    n: int
    cohen_macaulay: bool
    dual_linear: bool

    @property
    def ok(self) -> bool:
        return self.cohen_macaulay == self.dual_linear


def eagon_reiner_check(cx: SimplicialComplex, char: int = DEFAULT_CHAR) -> EagonReinerRecord:
    """Check Eagon-Reiner on one complex: its face ring is Cohen-Macaulay
    exactly when the ring's Alexander dual module (dualize_quotient, the
    dual ideal, support checked) has a linear resolution.

    The face ring of the full simplex is free and counts as
    Cohen-Macaulay; its dual ideal is the whole ring, whose resolution
    is trivially linear.
    """
    if cx.is_void:
        raise ValueError("the void complex has no face ring")
    module = face_ring(cx)
    return EagonReinerRecord(
        n=cx.n,
        cohen_macaulay=invariants(module, char).cohen_macaulay,
        dual_linear=invariants(dualize_quotient(module), char).linear_resolution,
    )


@dataclass(frozen=True, slots=True)
class DepthDualityRecord:
    """Stanley depth against depth, seen through the dual module.

    Dualizing decompositions swaps small tops for large bottoms, so the
    Stanley depth reaching the depth of the module is equivalent to the
    dual module admitting a decomposition with bottoms bounded by the
    dual regularity.
    """

    n: int
    sdepth: int
    depth: int
    dual_hreg_min: int
    dual_reg: int

    @property
    def ok(self) -> bool:
        return (self.sdepth >= self.depth) == (self.dual_hreg_min <= self.dual_reg)


def depth_duality_check(module: SqQuotient, char: int = DEFAULT_CHAR) -> DepthDualityRecord:
    """hreg_min(dual) = n - sdepth(module) by decomposition duality, so
    one sdepth search serves both sides.  As depth = n - projdim, `ok`
    says n - sdepth <= projdim exactly when n - sdepth <= dual reg:
    Terai's projdim = dual reg, restated."""
    if module.is_zero:
        raise ZeroModuleError("the zero module has no depth duality record")
    s, _ = _sdepth_walk(module)
    return DepthDualityRecord(
        n=module.n,
        sdepth=s,
        depth=module.n - betti(module, char).projdim,
        dual_hreg_min=module.n - s,
        dual_reg=betti(dualize_quotient(module), char).reg,
    )
