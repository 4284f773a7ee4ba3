import pytest

from sqstanley import sqmod


def _max_bottom(module, h):
    full = (1 << module.n) - 1
    found = sqmod._level_cover([full ^ m for m in module.support_masks()], module.n - h)
    return None if found is None else [(full ^ t, full ^ b) for b, t in found]


@pytest.fixture
def max_bottom():
    """The hreg probe at h: a partition with every bottom of size at
    most h, if one exists.  It is the sdepth probe `_level_cover` at
    n - h on the complements of the support members, mapped back by
    [b, t] -> [complement of t, complement of b], as `_hreg_walk` does."""
    return _max_bottom
