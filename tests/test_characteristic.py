import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from quasibessel.characteristic import (
    _MAX_DOUBLINGS,
    GRID_POINTS,
    CharacteristicRoot,
    RootSearchWarning,
    _analytic_family,
    _bisect,
    _default_search_hi,
    _grid_values,
    _status_for,
    _tail_monotone_positive,
)
from quasibessel.gammafn import TAU_POLE, GammaPoleError

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


def test_find_roots_warns_when_doubling_budget_runs_out():
    # G = Gamma(1+g)/Gamma(g-0.2) - Gamma(1+g)/Gamma(g-0.19) - 144 grows like
    # g^1.19 (g^0.01 - 1): still negative after the last doubling, so a root
    # above the window is missed
    eq = QuasiBesselEquation(
        terms=(Term(1.0, 1.2), Term(-1.0, 1.19)), beta="1", nu_squared=144.0, kind=RL
    )
    with pytest.warns(RootSearchWarning, match=r"\(-1, 622\.182\]"):
        roots = find_roots(eq)
    assert len(roots) == 1
    assert characteristic_value(eq, 622.182) < 0
    # an explicit window is the caller's choice and is not second-guessed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(find_roots(eq, search_hi=100.0)) == 1


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


_NEAR = st.sampled_from((0.0, 1e-12, 5e-10, 1e-9, 2e-9))
_SIDE = st.sampled_from((1.0, -1.0))
_ALPHAS = st.one_of(
    st.integers(1, 2).map(float),
    st.builds(lambda k, d, side: k + side * d, st.integers(1, 2), _NEAR, _SIDE),
    st.floats(1e-3, 3.0, exclude_max=True),
)


@st.composite
def _equation_and_grid(draw):
    alphas = draw(st.lists(_ALPHAS, min_size=1, max_size=3))
    ds = draw(st.lists(st.floats(-3.0, 3.0), min_size=len(alphas), max_size=len(alphas)))
    eq = QuasiBesselEquation(
        terms=tuple(Term(d, a) for d, a in zip(ds, alphas)),
        beta="1",
        nu_squared=draw(st.floats(0.0, 50.0)),
        kind=draw(st.sampled_from((CAPUTO, RL))),
    )
    # 1 + gamma - alpha at (or next to) a nonpositive integer -m, gamma > -1
    near_pole = st.builds(
        lambda a, m, d, side: a - 1.0 - m + side * d,
        st.sampled_from(alphas),
        st.integers(0, 2),
        _NEAR,
        _SIDE,
    ).filter(lambda g: g > -1.0)
    points = st.one_of(near_pole, st.floats(-1.0, 40.0, exclude_min=True))
    return eq, sorted(draw(st.lists(points, min_size=1, max_size=40)))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, derandomize=True, database=None)
@given(case=_equation_and_grid())
def test_grid_values_bit_identical_to_characteristic_value(case):
    eq, grid = case
    scalar = _outcome(lambda: [characteristic_value(eq, g) for g in grid])
    assert _outcome(_grid_values, eq, grid) == scalar


# find_roots as it was before the batched grid, verbatim apart from the name
# and the docstring: one characteristic_value call per grid point.
def _scalar_find_roots(eq, search_hi=None, grid_points=GRID_POINTS):
    if eq.m1 == 0:
        warnings.warn(
            RootSearchWarning(
                "no pure Bessel terms: G(gamma) is the constant -nu^2 and has no roots"
            )
        )
        return []
    if eq.nu_squared == 0.0 and eq.m1 == 1:
        return _analytic_family(eq)

    floor = -1.0 + TAU_POLE
    first = -1.0 + 2.0 * TAU_POLE
    hi = _default_search_hi(eq) if search_hi is None else float(search_hi)
    if hi <= floor:
        raise ValueError(f"search_hi={hi} must exceed the lower bound {floor}")

    attempts = _MAX_DOUBLINGS if search_hi is None else 0
    while True:
        step = (hi - floor) / grid_points
        grid = [floor + i * step for i in range(1, grid_points + 1)]
        if grid[0] > first:
            grid.insert(0, first)
        values = [characteristic_value(eq, g) for g in grid]
        if attempts == 0 or _tail_monotone_positive(values):
            break
        hi = floor + 2.0 * (hi - floor)
        attempts -= 1

    roots = []
    for (g_lo, f_lo), (g_hi, f_hi) in zip(zip(grid, values), zip(grid[1:], values[1:])):
        if f_lo == 0.0:
            roots.append(CharacteristicRoot(g_lo, _status_for(eq, g_lo)))
        elif (f_lo < 0) != (f_hi < 0):
            g = _bisect(eq, g_lo, g_hi, f_lo)
            roots.append(CharacteristicRoot(g, _status_for(eq, g)))
    if values and values[-1] == 0.0:
        roots.append(CharacteristicRoot(grid[-1], _status_for(eq, grid[-1])))

    if not roots:
        warnings.warn(
            RootSearchWarning(
                f"no sign change of G(gamma) found on ({floor:.3g}, {hi:.6g}] "
                f"with {grid_points} samples"
            )
        )
    roots.sort(key=lambda root: root.gamma)
    return roots


@pytest.mark.parametrize(
    "eq",
    [
        # G < 0 at the top of the first window: one doubling
        QuasiBesselEquation(
            terms=(Term(1.4, 1.7), Term(-29.87, 0.7), Term(0.2, 0.2, "0.8")),
            beta="1.3",
            nu_squared=2.53**2,
            kind=RL,
        ),
        # three pure Bessel terms
        QuasiBesselEquation(
            terms=(Term(1.2, 1.2), Term(1.2, 0.6), Term(0.2, 0.2), Term(-0.4, 0.5, "0.5")),
            beta="0.8",
            nu_squared=0.66**2,
            kind=RL,
        ),
        # an integer-order pure term (the falling-product path)
        QuasiBesselEquation(
            terms=(Term(1.0, 2.0), Term(0.5, 0.6)), beta="1", nu_squared=4.0, kind=RL
        ),
        # the root in the first cell above the pole
        QuasiBesselEquation(
            terms=(Term(0.7, 1.2), Term(0.8, 0.8), Term(0.9, 0.6, "0.2")),
            beta="1.1",
            nu_squared=2.07**2,
            kind=CAPUTO,
        ),
    ],
    ids=["doubling", "three-pure", "integer-order", "first-cell"],
)
def test_find_roots_matches_scalar_grid_loop(eq):
    roots = find_roots(eq)
    assert roots
    assert roots == _scalar_find_roots(eq)
