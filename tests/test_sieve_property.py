import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from floorsum.primes import is_prime
from floorsum.sieve import LAMBDA, MU, point_value, point_values, sieve_table, tau


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


# random n below 2**63 are rarely prime powers, so half the draws are p**a
PRIME_POWERS = st.tuples(
    st.integers(min_value=2, max_value=3 * 10**6).filter(is_prime), st.integers(min_value=1, max_value=6)
).map(lambda pa: pa[0] ** pa[1]).filter(lambda n: n <= 2**63 - 1)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from([LAMBDA, tau(2), tau(3), tau(4)]),
    ns=st.lists(st.integers(min_value=1, max_value=2**63 - 1) | PRIME_POWERS, min_size=1, max_size=20),
)
def test_point_values_match_point_value(kind, ns):
    got = point_values(kind, np.array(ns, dtype=np.int64)).tolist()
    assert got == [point_value(kind, n) for n in ns], kind.label
