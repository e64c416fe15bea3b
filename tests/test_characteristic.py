import math

import pytest

from _examples import (
    CAPUTO,
    RL,
    constant_coefficients_rl,
    example1,
    example2,
    example3,
    example4,
    remark3_equation,
)
from quasibessel import (
    QuasiBesselEquation,
    RootStatus,
    Term,
    caputo_integer_exponents,
    characteristic_value,
    compute_step,
    find_roots,
    screen_collisions,
)
from quasibessel.characteristic import CharacteristicRoot, RootSearchWarning
from quasibessel.gammafn import GammaPoleError

# paper-reported roots for the Example 1 characteristic equation
ROOT_NU2 = 2.1995
ROOT_NU35 = 4.3181


def test_characteristic_value_trivial():
    eq = QuasiBesselEquation(terms=(Term(1.0, 1.0, "0"),), beta="1", nu_squared=0.0)
    # single term Q(0, 1) = gamma
    assert characteristic_value(eq, 3.0) == pytest.approx(3.0, rel=1e-14)


def test_characteristic_value_example1_at_reported_root():
    eq = example1(2.0)
    assert abs(characteristic_value(eq, ROOT_NU2)) < 1e-3


def test_characteristic_value_vanishes_on_analytic_family():
    eq = constant_coefficients_rl(["2.1", "1.4", "0.7"])
    for g in (-0.9, 0.1, 1.1):
        assert characteristic_value(eq, g) == 0.0


def test_characteristic_value_pole_guard():
    eq = example1(2.0)
    with pytest.raises(GammaPoleError):
        characteristic_value(eq, -1.0)


def test_find_roots_example1():
    eq = example1(2.0)
    roots = find_roots(eq)
    valid = [r for r in roots if r.is_valid]
    assert len(valid) == 1
    assert valid[0].gamma == pytest.approx(ROOT_NU2, abs=5e-4)
    # the low root on (-1, -0.5) exists but is below the Caputo floor
    flagged = [r for r in roots if r.status is RootStatus.BELOW_CAPUTO_FLOOR]
    assert flagged and flagged[0].gamma < 0


def test_find_roots_example1_nu35():
    roots = find_roots(example1(3.5))
    valid = [r for r in roots if r.is_valid]
    assert len(valid) == 1
    assert valid[0].gamma == pytest.approx(ROOT_NU35, abs=5e-4)


def test_find_roots_refinement():
    for nu in (2.0, 3.5):
        eq = example1(nu)
        for root in find_roots(eq):
            assert abs(characteristic_value(eq, root.gamma)) < 1e-8 * (1 + eq.nu_squared)


def test_find_roots_grid_refinement_stability():
    eq = example1(2.0)
    coarse = find_roots(eq)
    fine = find_roots(eq, grid_points=20_000)
    assert len(fine) >= len(coarse)
    for old in coarse:
        assert any(abs(new.gamma - old.gamma) < 1e-9 for new in fine)


def test_find_roots_first_cell_above_pole():
    # G(-1 + 2e-9) = +2.4e6 and G(floor + step) = -2.9: the only sign change
    # below the valid root lies inside the first grid cell (step 0.0018)
    eq = QuasiBesselEquation(
        terms=(Term(0.7, 1.2), Term(0.8, 0.8), Term(0.9, 0.6, "0.2")),
        beta="1.1",
        nu_squared=2.07**2,
        kind=CAPUTO,
    )
    roots = find_roots(eq)
    low = [r for r in roots if r.gamma < 0]
    assert len(low) == 1
    assert low[0].gamma == pytest.approx(-0.99912, abs=1e-5)
    assert low[0].status is RootStatus.BELOW_CAPUTO_FLOOR
    # G is steep next to the pole, so check the bracket rather than |G|
    g = low[0].gamma
    assert characteristic_value(eq, g - 1e-10) > 0 > characteristic_value(eq, g + 1e-10)


def test_find_roots_analytic_family_rl():
    eq = constant_coefficients_rl(["2.1", "1.4", "0.7"])
    roots = find_roots(eq)
    assert [r.gamma for r in roots] == pytest.approx([-0.9, 0.1, 1.1], abs=1e-10)
    assert all(r.is_valid for r in roots)


def test_find_roots_analytic_family_integer_order():
    roots = find_roots(example2())
    assert [r.gamma for r in roots] == [0.0]
    assert roots[0].is_valid


def test_find_roots_caputo_flags_analytic_family():
    eq = constant_coefficients_rl(["2.1", "1.4", "0.7"])
    eq = QuasiBesselEquation(
        terms=eq.terms, beta=eq.beta, nu_squared=0.0, r=eq.r, kind=CAPUTO
    )
    roots = find_roots(eq)
    assert [r.status for r in roots] == [RootStatus.BELOW_CAPUTO_FLOOR] * 3


def test_find_roots_warns_when_no_pure_bessel_terms():
    eq = QuasiBesselEquation(
        terms=(Term(1.0, 1.5, "0.4"),), beta="1", nu_squared=1.0, kind=RL
    )
    with pytest.warns(RootSearchWarning):
        assert find_roots(eq) == []


def test_screen_collisions_remark3():
    eq = remark3_equation()
    plan = compute_step(eq)
    assert float(plan.s) == pytest.approx(0.2)
    roots = screen_collisions(find_roots(eq), plan)
    assert roots[0].gamma == pytest.approx(-0.5, abs=1e-12)
    assert roots[0].status is RootStatus.COLLISION_INVALID
    assert roots[0].collision_step == 5
    assert roots[1].gamma == pytest.approx(0.5, abs=1e-12)
    assert roots[1].is_valid


def test_screen_collisions_step_07_all_valid():
    eq = constant_coefficients_rl(["2.1", "1.4", "0.7"])
    plan = compute_step(eq)
    assert float(plan.s) == pytest.approx(0.7)
    roots = screen_collisions(find_roots(eq), plan)
    assert all(r.is_valid for r in roots)


def test_screen_collisions_step_01_invalidates_two():
    eq = constant_coefficients_rl(["2.1", "1.5", "0.7"])
    plan = compute_step(eq)
    assert float(plan.s) == pytest.approx(0.1)
    roots = screen_collisions(find_roots(eq), plan)
    by_gamma = {round(r.gamma, 6): r for r in roots}
    assert by_gamma[-0.9].status is RootStatus.COLLISION_INVALID
    assert by_gamma[-0.9].collision_step == 10
    assert by_gamma[0.1].status is RootStatus.COLLISION_INVALID
    assert by_gamma[0.1].collision_step == 10
    assert by_gamma[1.1].is_valid  # the largest root always survives


def test_screen_collisions_idempotent():
    eq = constant_coefficients_rl(["2.1", "1.5", "0.7"])
    plan = compute_step(eq)
    once = screen_collisions(find_roots(eq), plan)
    twice = screen_collisions(once, plan)
    assert once == twice


def test_caputo_integer_exponents():
    eq = example3()  # RL: not applicable
    assert caputo_integer_exponents(eq) == []
    caputo = QuasiBesselEquation(
        terms=eq.terms, beta=eq.beta, nu_squared=0.0, r=eq.r, kind=CAPUTO
    )
    assert caputo_integer_exponents(caputo) == [0, 1]
    assert caputo_integer_exponents(example2()) == [0]
    # nu > 0 breaks the zeroth balance
    nu_eq = QuasiBesselEquation(
        terms=eq.terms, beta=eq.beta, nu_squared=1.0, r=eq.r, kind=CAPUTO
    )
    assert caputo_integer_exponents(nu_eq) == []
