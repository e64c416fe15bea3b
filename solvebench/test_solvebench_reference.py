"""Quick self-test of the benchmark's 50-digit reference; runs no solver."""

import reference


def test_reference_self_test():
    # E_1(-x) = exp(-x); Remark 3's root -0.5 collides after 5 steps;
    # the recursion for u' + u = 0 sums to exp(-x)
    reference.self_test()
