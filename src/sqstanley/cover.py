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
"""

from .setcalc import submasks


def first_interval_partition(support, tops_for):
    """Partition the support (an iterable of masks) into intervals.

    tops_for(bottom) supplies candidate top masks in the order they
    should be tried; candidates that miss the bottom or whose interval
    leaves the uncovered part of the family are skipped here, so callers
    only encode their own constraints (size gates, membership gates).
    Returns the first partition found as a list of (bottom, top) mask
    pairs in discovery order, or None when no partition exists.
    Exhausted states are memoized by their uncovered set so the search
    never re-enters a subtree known to fail.
    """
    uncovered = set(support)
    dead = set()
    chosen = []

    def extend():
        if not uncovered:
            return True
        state = frozenset(uncovered)
        if state in dead:
            return False
        bottom = min(uncovered)
        for top in tops_for(bottom):
            if bottom & ~top:
                continue
            members = [bottom | s for s in submasks(top & ~bottom)]
            if any(m not in uncovered for m in members):
                continue
            uncovered.difference_update(members)
            chosen.append((bottom, top))
            if extend():
                return True
            chosen.pop()
            uncovered.update(members)
        dead.add(state)
        return False

    try:
        if extend():
            return chosen
        return None
    finally:
        # extend's closure refers to extend itself; break that cycle so
        # the memo is freed on return, not at the next collection
        extend = None
