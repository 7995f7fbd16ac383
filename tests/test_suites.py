import pytest

from conglab.analyzer import Caps
from conglab.domains import CapExceeded
from conglab.suites import exhaustive_frames, psl_subgroups


def test_psl_subgroups_cache_respects_caps():
    P, _, _ = psl_subgroups(8)
    assert P.size == 192
    with pytest.raises(CapExceeded):
        psl_subgroups(8, Caps(group=10))


def test_exhaustive_frames_cache_respects_caps():
    assert exhaustive_frames("Z/4")
    with pytest.raises(CapExceeded):
        exhaustive_frames("Z/4", Caps(group=10))
