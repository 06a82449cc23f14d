import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floorsum.floor_sums import sum_blocked, sum_direct
from floorsum.sieve import LAMBDA, tau


# sum_direct near x = 1e6 takes about 0.1 s on a 2-core VM, so 40
# examples stay under 10 s
@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from([tau(2), tau(3), tau(4), LAMBDA]),
    x=st.integers(min_value=1, max_value=10**6),
)
def test_sum_blocked_matches_sum_direct(kind, x):
    blocked, direct = sum_blocked(kind, x), sum_direct(kind, x)
    if kind.name == "tau":
        assert blocked == direct, (kind.label, x)
    else:
        assert blocked == pytest.approx(direct, rel=1e-12), x
