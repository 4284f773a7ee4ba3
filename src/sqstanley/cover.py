"""Exact cover of a support family by lattice intervals.

Every consumer of interval partitions (Stanley decompositions at
prescribed depth, decompositions with bounded bottoms, partitionability
of complexes) reduces to the same search, and the search has one
structural shortcut: in any interval partition, the interval containing
the numerically smallest uncovered set must start exactly at that set.
Its bottom lies below that set, belongs to the family, and is still
uncovered, so it sorts no later; minimality forces equality.  Bottoms
are therefore never guessed, only tops, and each partition is reachable
along exactly one search path.

The search state is the uncovered part of the support as a family word
(see setcalc): the forced bottom is its lowest set bit, an interval
fits when its word lies inside the state, and placing it is one xor.
Exhausted states are memoized by their word.
"""

from .errors import CapExceededError


def _interval_word(bottom: int, top: int) -> int:
    """The word of the interval [bottom, top]: one shift-or per free element."""
    word = 1 << bottom
    free = top & ~bottom
    while free:
        low = free & -free
        word |= word << low
        free ^= low
    return word


def first_interval_partition(support, tops_for):
    """Partition the support (a family word) into intervals.

    tops_for(bottom) supplies candidate top masks in the order they
    should be tried; candidates that miss the bottom or whose interval
    leaves the uncovered part of the family are skipped here, so callers
    only encode their own constraints (size gates, membership gates).
    Returns the first partition found as a list of (bottom, top) mask
    pairs in discovery order, or None when no partition exists.
    Exhausted states are memoized so the search never re-enters a
    subtree known to fail.  A search deeper than the interpreter's
    recursion limit raises CapExceededError.
    """
    dead = set()
    chosen = []
    intervals = {}

    def extend(uncovered):
        if not uncovered:
            return True
        if uncovered in dead:
            return False
        bottom = (uncovered & -uncovered).bit_length() - 1
        for top in tops_for(bottom):
            if bottom & ~top:
                continue
            key = (bottom, top)
            iv = intervals.get(key)
            if iv is None:
                iv = intervals[key] = _interval_word(bottom, top)
            if iv & ~uncovered:
                continue
            chosen.append(key)
            if extend(uncovered ^ iv):
                return True
            chosen.pop()
        dead.add(uncovered)
        return False

    try:
        if extend(support):
            return chosen
        return None
    except RecursionError:
        raise CapExceededError(
            "interval cover search too deep: recursion limit reached "
            f"after choosing {len(chosen)} intervals") from None
    finally:
        # extend's closure refers to extend itself; break that cycle so
        # the memo is freed on return, not at the next collection
        extend = None
