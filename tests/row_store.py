"""The normal form that elements, module vectors and polynomials share, asserted on
any of the three stores."""

import math


def assert_rows_normal(nums, den):
    """nums maps row keys to nonempty int tuples without a trailing zero,
    over den > 0 with gcd(den, *all numerators) = 1; no rows means den = 1.
    A key is an int triple, or the int 0 of a polynomial's one row.  Only an
    element's C row has a middle index 0: its key is (0, 0, 0), and it holds
    one numerator."""
    assert type(den) is int and den > 0
    assert math.gcd(den, *(c for row in nums.values() for c in row)) == 1
    for key, row in nums.items():
        assert type(row) is tuple and row and row[-1]
        assert all(type(c) is int for c in row)
        if type(key) is int:
            assert key == 0 and len(nums) == 1
            continue
        assert type(key) is tuple and len(key) == 3 and all(type(x) is int for x in key)
        if key[1] == 0:
            assert key == (0, 0, 0) and len(row) == 1
    if not nums:
        assert den == 1
