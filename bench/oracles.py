"""Independent checks of sqstanley's outputs.

Nothing here imports sqstanley.  Every check works on plain subset
masks (bit j-1 stands for the variable x_j) and recomputes what it
needs with its own loops: supports from generator masks, interval
members, inversion counts, Euler characteristics of Koszul complexes,
and the enumeration of nested pairs of squarefree ideals.  A check
returns nothing when the output is right and raises OracleError naming
the instance when it is wrong.
"""

import json
from math import comb


class OracleError(Exception):
    """An output of the program disagrees with an independent check."""


def require(cond, message):
    if not cond:
        raise OracleError(message)


def in_ideal(mask, gens):
    """Whether x_mask lies in the squarefree ideal with these generators."""
    for g in gens:
        if g & mask == g:
            return True
    return False


def support(n, inner, outer):
    """Support of outer/inner, from generator masks, in increasing order."""
    return [m for m in range(1 << n) if in_ideal(m, outer) and not in_ideal(m, inner)]


def band(n, d, e):
    """Support of L[d, e]: every subset F of [n] with d <= |F| <= e."""
    return [m for m in range(1 << n) if d <= m.bit_count() <= e]


def faces(n, facets):
    """Every face of the complex with these facet masks."""
    return [m for m in range(1 << n) if any(m & f == m for f in facets)]


def complement(n, family):
    full = (1 << n) - 1
    return [full ^ m for m in family]


def minimal_members(family):
    fam = set(family)
    return {m for m in fam if not any(o != m and o & m == o for o in fam)}


def interval_members(bottom, top):
    """Every H with bottom <= H <= top, walking the free bits downwards."""
    free = top & ~bottom
    sub = free
    out = []
    while True:
        out.append(bottom | sub)
        if sub == 0:
            return out
        sub = (sub - 1) & free


def check_partition(pairs, family, what):
    """The (bottom, top) intervals partition the family exactly."""
    covered = []
    for bottom, top in pairs:
        require(bottom & ~top == 0, f"{what}: bottom {bottom} not below top {top}")
        covered.extend(interval_members(bottom, top))
    require(len(covered) == len(set(covered)), f"{what}: intervals overlap")
    require(set(covered) == set(family),
            f"{what}: intervals cover {len(set(covered))} sets, "
            f"the support has {len(set(family))}")


def inversions(a, b):
    """Pairs (r, s) with r in a, s in b and r > s, by a double loop."""
    count = 0
    for r in range(a.bit_length()):
        if a >> r & 1:
            for s in range(r):
                if b >> s & 1:
                    count += 1
    return count


# ---------------------------------------------------------------- cover

def veronese_sdepth(n, d):
    """sdepth of the squarefree Veronese ideal I_{n,d}.

    Keller-Shen-Streib-Young (2011) for 1 <= d <= n < 5d + 4, which
    covers every n <= 8; for d = 1 this is ceil(n/2) (Biro et al. 2010).
    d = 0 is the whole ring, of Stanley depth n.
    """
    return (n - d) // (d + 1) + d


def check_search(kind, n, d, e, value, pairs):
    """A cover-search answer on L[d, e]: its witness partitions the band
    and attains the reported value; sdepth of a Veronese band (e = n)
    matches the closed formula."""
    what = f"{kind} L[{d},{e}] n={n}"
    check_partition(pairs, band(n, d, e), what)
    if kind == "sdepth":
        require(min(t.bit_count() for _, t in pairs) == value,
                f"{what}: witness tops do not attain {value}")
        if e == n:
            require(value == veronese_sdepth(n, d),
                    f"{what}: {value} != formula {veronese_sdepth(n, d)}")
    else:
        require(max(b.bit_count() for b, _ in pairs) == value,
                f"{what}: witness bottoms do not attain {value}")


def check_hreg_duality(values):
    """hreg_min(L[d,e]) = n - sdepth(L[n-e, n-d]): complementing every
    set swaps the band and turns tops into bottoms.  values maps
    (kind, n, d, e) to the answer; each hreg is paired with its mirror."""
    for (kind, n, d, e), h in values.items():
        if kind != "hreg":
            continue
        mirror = values.get(("sdepth", n, n - e, n - d))
        if mirror is not None:
            require(h == n - mirror,
                    f"hreg L[{d},{e}] n={n} is {h}, mirror sdepth gives {n - mirror}")


# ---------------------------------------------------------------- homology

def veronese_total_betti(n, d, i):
    """beta_i of I_{n,d}, which has a linear resolution."""
    return comb(n, d + i) * comb(d + i - 1, d - 1)


def projdim(entries):
    return max(i for i, _, _ in entries)


def reg(entries):
    return max(sigma.bit_count() - i for i, sigma, _ in entries)


def check_betti(n, family, entries, what, veronese_d=None):
    """A Betti table (entries (i, sigma, beta)) of the module with this support.

    In every degree sigma the alternating sum of the table equals the
    Euler characteristic of the Koszul strand, sum over T <= sigma with
    sigma - T in the support of (-1)^|T|; beta_0 is 1 exactly at the
    minimal support members; for I_{n,d} the totals follow the closed
    formula.
    """
    fam = set(family)
    euler = {}
    seen = set()
    for i, sigma, b in entries:
        require(b > 0 and (i, sigma) not in seen, f"{what}: bad entry {(i, sigma, b)}")
        seen.add((i, sigma))
        euler[sigma] = euler.get(sigma, 0) + (-b if i % 2 else b)
    for sigma in range(1 << n):
        chain = 0
        t = sigma
        while True:
            if sigma ^ t in fam:
                chain += -1 if t.bit_count() % 2 else 1
            if t == 0:
                break
            t = (t - 1) & sigma
        require(euler.get(sigma, 0) == chain,
                f"{what}: Euler characteristic {euler.get(sigma, 0)} != {chain} "
                f"in degree {sigma}")
    gens = {sigma: b for i, sigma, b in entries if i == 0}
    require(set(gens) == minimal_members(fam) and all(b == 1 for b in gens.values()),
            f"{what}: beta_0 is not 1 exactly at the minimal support members")
    if veronese_d is not None:
        totals = {}
        for i, _, b in entries:
            totals[i] = totals.get(i, 0) + b
        want = {i: veronese_total_betti(n, veronese_d, i) for i in range(n - veronese_d + 1)}
        require(totals == want, f"{what}: totals {totals} != {want}")


def check_terai(entries, dual_entries, what):
    """projdim of a module equals reg of its Alexander dual (Terai)."""
    require(projdim(entries) == reg(dual_entries),
            f"{what}: projdim {projdim(entries)} != dual reg {reg(dual_entries)}")


# ---------------------------------------------------------------- n = 4 sweeps

def up_sets(n):
    """Every up-closed family of subsets of [n], as a 2^n-bit int.

    Sets are decided from the top level down; a set may join only when
    every set one element larger already has.
    """
    order = sorted(range(1 << n), key=lambda m: -m.bit_count())
    out = []

    def rec(k, fam):
        if k == len(order):
            out.append(fam)
            return
        m = order[k]
        rec(k + 1, fam)
        if all(fam >> (m | 1 << j) & 1 for j in range(n) if not m >> j & 1):
            rec(k + 1, fam | 1 << m)

    rec(0, 0)
    return out


def family_bits(n, gens):
    bits = 0
    for m in range(1 << n):
        if in_ideal(m, gens):
            bits |= 1 << m
    return bits


def check_module_set(n, presentations, expected_count):
    """The enumerated quotients are exactly the nonzero ones: one per
    pair of squarefree ideals inner < outer, each pair once."""
    ups = up_sets(n)
    want = {(v, u) for u in ups for v in ups if v & ~u == 0 and v != u}
    got = [(family_bits(n, inner), family_bits(n, outer)) for inner, outer in presentations]
    require(len(want) == expected_count,
            f"own enumeration finds {len(want)} quotients, not {expected_count}")
    require(len(got) == expected_count, f"{len(got)} quotients enumerated, not {expected_count}")
    require(set(got) == want and len(set(got)) == len(got),
            "enumerated quotients differ from the nested pairs of ideals")


def check_survey_row(n, inner, outer, row, text):
    """One survey record against its own support and the proved identities."""
    what = f"survey inner={inner} outer={outer}"
    family = support(n, inner, outer)
    require(family, f"{what}: zero module surveyed")
    dim = max(m.bit_count() for m in family)
    require(row["n"] == n and row["dim"] == dim, f"{what}: dim {row['dim']} != {dim}")
    require(row["projdim"] + row["depth"] == n, f"{what}: projdim + depth != n")
    require(row["hreg_min"] == row["hreg_dual"], f"{what}: hreg_min != hreg_dual")
    require(row["cohen_macaulay"] == (row["depth"] == dim), f"{what}: CM flag wrong")
    require(row["sdepth"] <= dim, f"{what}: sdepth above dim")
    require(json.loads(text) == row, f"{what}: serialized record does not read back")


def check_duality(n, inner, outer, peel, peel_valid, dual_peel, sdepth, witness,
                  pieces, dual_pieces, signs):
    """The paper's statements on one module.

    peel and dual_peel are lists of (degree, prime) masks, witness a list
    of (bottom, top) intervals, pieces and dual_pieces lists of
    (start, free) exterior pieces, signs aligned with dual_pieces.
    """
    what = f"duality inner={inner} outer={outer}"
    full = (1 << n) - 1
    family = support(n, inner, outer)
    dual_family = complement(n, family)
    require(peel_valid is True, f"{what}: peel filtration rejected")
    require(len(peel) == len(family), f"{what}: {len(peel)} peel steps for {len(family)} sets")
    require(sorted(g for g, _ in peel) == family
            and all(p == full ^ g for g, p in peel), f"{what}: peel steps wrong")
    require(len(dual_peel) == len(family)
            and sorted(g for g, _ in dual_peel) == sorted(dual_family),
            f"{what}: dual filtration does not peel the complement support")
    check_partition(witness, family, f"{what} sdepth witness")
    require(min(t.bit_count() for _, t in witness) == sdepth,
            f"{what}: witness does not attain sdepth {sdepth}")
    check_partition([(s, s | f) for s, f in pieces], family, f"{what} exterior pieces")
    check_partition([(s, s | f) for s, f in dual_pieces], dual_family, f"{what} dual pieces")
    require(len(signs) == len(dual_pieces), f"{what}: {len(signs)} signs")
    for (start, free), sign in zip(dual_pieces, signs):
        orig_start = (full ^ start) & ~free
        want = -1 if inversions(orig_start, free) % 2 else 1
        require(sign == want, f"{what}: sign {sign} != {want} on piece ({start}, {free})")
