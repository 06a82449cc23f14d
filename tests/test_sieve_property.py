from hypothesis import given, settings
from hypothesis import strategies as st

from floorsum.sieve import LAMBDA, MU, point_value, sieve_table, tau


# a 3000-entry window near 1e12 takes about 0.5 s of point_value calls on a
# 2-core VM, so 15 examples stay under 10 s
@settings(max_examples=15, deadline=None)
@given(
    kind=st.sampled_from([LAMBDA, MU, tau(2), tau(3), tau(4)]),
    lo=st.integers(min_value=1, max_value=10**12),
    width=st.integers(min_value=1, max_value=3000),
)
def test_window_sieve_matches_point_value(kind, lo, width):
    table = sieve_table(kind, lo, lo + width)
    for n in range(lo, lo + width):
        assert table.value(n) == point_value(kind, n), (kind.label, n)
