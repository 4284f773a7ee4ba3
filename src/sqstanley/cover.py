"""Exact cover of a support family by lattice intervals.

Every consumer of interval partitions (Stanley decompositions at
prescribed depth, decompositions with bounded bottoms, partitionability
of complexes) reduces to the same search, and the search has one
structural shortcut: in any interval partition, the interval containing
the numerically smallest uncovered set must start exactly at that set.
Its bottom lies below that set, belongs to the family, and is still
uncovered, so it sorts no later; minimality forces equality.  Bottoms
are therefore never guessed, only tops, and each partition is reachable
along exactly one search path.  The search has one caller, the gate
helper in sqmod, through which every consumer runs.  A search that
should force tops instead (decompositions with bounded bottoms) runs
on the complements of the family: complementing turns the smallest
uncovered complement into the largest uncovered set, and [b, t] into
[complement of t, complement of b], so the search needs no second
direction.

The search state is the uncovered part of the support as a family word
(see setcalc): the forced bottom is its lowest set bit, an interval
fits when its word lies inside the state, and placing it is one xor.
Exhausted states are memoized by their word.  That one word is the
whole state: a backtrack xors the interval back in, so the depth is
bounded by memory, not by the interpreter's recursion limit.
"""


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
    subtree known to fail.

    An explicit stack holds one candidate iterator per open state, and
    a backtrack xors the cached interval word back into the one state
    word, so the depth is bounded by memory alone.
    """
    chosen, frames, intervals, dead = [], [], {}, set()
    uncovered = support
    while uncovered:
        bottom = (uncovered & -uncovered).bit_length() - 1
        tops = iter(tops_for(bottom))
        frames.append(tops)
        while True:  # next fitting candidate, leaving exhausted states
            for top in tops:
                if bottom & ~top:
                    continue
                key = (bottom, top)
                iv = intervals.get(key)
                if iv is None:
                    iv = intervals[key] = _interval_word(bottom, top)
                if not iv & ~uncovered and uncovered ^ iv not in dead:
                    break
            else:
                dead.add(uncovered)
                frames.pop()
                if not frames:
                    return None
                key = chosen.pop()
                uncovered ^= intervals[key]
                bottom, tops = key[0], frames[-1]
                continue
            chosen.append(key)
            uncovered ^= iv
            break
    return chosen
