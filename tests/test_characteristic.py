import json
import math
import os
import subprocess
import sys
import warnings

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
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
import quasibessel
from quasibessel import (
    QuasiBesselEquation,
    RootStatus,
    Term,
    caputo_integer_exponents,
    characteristic_value,
    compute_step,
    find_roots,
    from_constant_coefficients,
    screen_collisions,
)
from quasibessel.characteristic import (
    _MAX_DOUBLINGS,
    GRID_POINTS,
    CharacteristicRoot,
    RootSearchWarning,
    _analytic_family,
    _bisect,
    _first_window_top,
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


def test_find_roots_grid_refinement_stability(monkeypatch):
    eq = example1(2.0)
    coarse = find_roots(eq)
    monkeypatch.setattr(quasibessel.characteristic, "GRID_POINTS", 20_000)
    fine = find_roots(eq)
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


def test_find_roots_terminates_on_root_above_float_resolution():
    # the root near 1.056e6 sits where neighbouring floats are 1.16e-10 apart,
    # so bisection can only stop on the float spacing; run in a child process
    # so that a regression fails instead of hanging
    code = (
        "import json\n"
        "from quasibessel import QuasiBesselEquation, Term, find_roots\n"
        "from quasibessel.equation import DerivativeKind\n"
        "for kind in DerivativeKind:\n"
        "    eq = QuasiBesselEquation(terms=(Term(1.99, 0.126),), beta='1',\n"
        "                             nu_squared=3.38**2, kind=kind)\n"
        "    print(json.dumps([[r.gamma.hex(), r.status.value] for r in find_roots(eq)]))\n"
    )
    src = os.path.dirname(os.path.dirname(quasibessel.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert done.returncode == 0, done.stderr
    with mp.workdps(30):
        ref = mp.findroot(
            lambda g: 1.99 * mp.gamma(1 + g) / mp.gamma(1 + g - 0.126) - 3.38**2, 1.056e6
        )
    lines = done.stdout.splitlines()
    assert len(lines) == 2
    for line in lines:
        ((gamma_hex, status),) = json.loads(line)
        assert status == "valid"
        assert abs(float.fromhex(gamma_hex) - ref) <= 1e-6 * ref


@pytest.mark.parametrize(
    "eq",
    [
        example1(2.0),
        example1(3.5),
        QuasiBesselEquation(
            terms=(Term(1.0, 1.7), Term(-1.5, 1.2), Term(0.8, 0.5)),
            beta="1",
            nu_squared=0.49,
            kind=RL,
        ),
        QuasiBesselEquation(terms=(Term(1.99, 0.126),), beta="1", nu_squared=3.38**2, kind=RL),
    ],
    ids=["example1-nu2", "example1-nu3.5", "rl-three-pure-terms", "root-near-1e6"],
)
def test_scanned_roots_end_on_neighbouring_floats(eq):
    # bisection runs until its bracket is two neighbouring floats, so each
    # root is an exact zero of the computed G or sits next to its sign change
    roots = find_roots(eq)
    assert roots
    for root in roots:
        g = root.gamma
        f = characteristic_value(eq, g)
        if f == 0.0:
            continue
        neighbours = (math.nextafter(g, -math.inf), math.nextafter(g, math.inf))
        assert any((f < 0) != (characteristic_value(eq, h) < 0) for h in neighbours), g


def test_scanned_root_matches_50_digit_root():
    eq = example1(2.0)
    (root,) = [r for r in find_roots(eq) if r.is_valid]
    with mp.workdps(50):
        ref = mp.findroot(lambda g: 1.5 * mp.gamma(1 + g) / mp.gamma(g - 0.5) - 4, ROOT_NU2)
    assert abs(root.gamma - float(ref)) <= 1e-13 * abs(root.gamma)


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
    # the roots 2.1 - k of G are flagged; the integers below ceil(2.1) are
    # leading exponents too
    flagged, valid = RootStatus.BELOW_CAPUTO_FLOOR, RootStatus.VALID
    assert [(r.gamma, r.status) for r in roots] == [
        (pytest.approx(-0.9), flagged), (0.0, valid), (pytest.approx(0.1), flagged),
        (1.0, valid), (pytest.approx(1.1), flagged), (2.0, valid),
    ]


def test_find_roots_bagley_torvik_integer_roots_are_exponents():
    # Caputo u'' + D^1.5 u + u = 0: G has the roots 0 and 1 of D^2, which lie
    # at or below the floor n_max - 1 = 1 set by D^1.5, yet are its integer
    # exponents, so they come back exactly once each and valid
    eq = from_constant_coefficients([(1.0, "2"), (1.0, "1.5")], kind=CAPUTO)
    roots = find_roots(eq)
    assert [(r.gamma, r.status) for r in roots] == [
        (0.0, RootStatus.VALID), (1.0, RootStatus.VALID),
    ]


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
    # doubled scan windows reach ~5e12, where the lgamma difference cancels
    far = st.floats(1.0, 13.0).map(lambda e: 10.0**e)
    points = st.one_of(near_pole, st.floats(-1.0, 40.0, exclude_min=True), far)
    # in drawn order: _grid_values needs no ascending grid
    return eq, draw(st.lists(points, min_size=1, max_size=40))


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


# find_roots as it was before the batched grid, verbatim apart from the name,
# the docstring, the resolution, which it reads from GRID_POINTS as
# find_roots does, and the zero rule, which bisects a pair only when its
# values have strictly opposite signs as find_roots does: one
# characteristic_value call per point of the whole fine grid.  Unlike
# find_roots it takes a window: search_hi is (-1, search_hi] with no
# doubling.
def _scalar_find_roots(eq, search_hi=None):
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
    hi = _first_window_top(eq) if search_hi is None else float(search_hi)
    if hi <= floor:
        raise ValueError(f"search_hi={hi} must exceed the lower bound {floor}")

    attempts = _MAX_DOUBLINGS if search_hi is None else 0
    while True:
        step = (hi - floor) / GRID_POINTS
        grid = [floor + i * step for i in range(1, GRID_POINTS + 1)]
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
        elif f_lo < 0 < f_hi or f_hi < 0 < f_lo:
            g = _bisect(eq, g_lo, g_hi, f_lo)
            roots.append(CharacteristicRoot(g, _status_for(eq, g)))
    if values and values[-1] == 0.0:
        roots.append(CharacteristicRoot(grid[-1], _status_for(eq, grid[-1])))

    if not roots:
        warnings.warn(
            RootSearchWarning(
                f"no sign change of G(gamma) found on ({floor:.3g}, {hi:.6g}] "
                f"with {GRID_POINTS} samples"
            )
        )
    roots.sort(key=lambda root: root.gamma)
    return roots


def _find_roots_up_to(eq, hi):
    """find_roots on the one window (-1, hi]: the first window top patched
    to hi, and no doubling."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quasibessel.characteristic, "_first_window_top", lambda eq: hi)
        patch.setattr(quasibessel.characteristic, "_MAX_DOUBLINGS", 0)
        return find_roots(eq)


@pytest.mark.parametrize(
    "eq, search_hi",
    [
        # G < 0 at the top of the first window: one doubling
        (
            QuasiBesselEquation(
                terms=(Term(1.4, 1.7), Term(-29.87, 0.7), Term(0.2, 0.2, "0.8")),
                beta="1.3",
                nu_squared=2.53**2,
                kind=RL,
            ),
            None,
        ),
        # three pure Bessel terms
        (
            QuasiBesselEquation(
                terms=(Term(1.2, 1.2), Term(1.2, 0.6), Term(0.2, 0.2), Term(-0.4, 0.5, "0.5")),
                beta="0.8",
                nu_squared=0.66**2,
                kind=RL,
            ),
            None,
        ),
        # an integer-order pure term (the falling-product path)
        (
            QuasiBesselEquation(
                terms=(Term(1.0, 2.0), Term(0.5, 0.6)), beta="1", nu_squared=4.0, kind=RL
            ),
            None,
        ),
        # the root in the first cell above the pole
        (
            QuasiBesselEquation(
                terms=(Term(0.7, 1.2), Term(0.8, 0.8), Term(0.9, 0.6, "0.2")),
                beta="1.1",
                nu_squared=2.07**2,
                kind=CAPUTO,
            ),
            None,
        ),
        # nu^2 just above a local minimum of G + nu^2: roots 2.33037 and
        # 2.33270 lie in one coarse cell whose ends share a sign
        (
            QuasiBesselEquation(
                terms=(Term(1.2, 1.86), Term(-3.29, 1.12), Term(4.927222040171153, 0.093)),
                beta="1",
                nu_squared=0.9515588557618456,
                kind=CAPUTO,
            ),
            None,
        ),
        # G is exactly 0.0 (both denominators at a pole) at a coarse point
        # where G rises through zero: the zero is reported once, as the low
        # end of its fine pair, and the cell below it is not bisected
        (
            QuasiBesselEquation(
                terms=(Term(1.0, 1.5), Term(3.0, 0.5)), beta="1", nu_squared=0.0, kind=RL
            ),
            11.5,
        ),
        # G = -g^2 - 1.9 g - nu^2 peaks just above 0 at g = -0.95: both roots
        # lie in the first coarse cell, with no difference known below it
        (
            QuasiBesselEquation(
                terms=(Term(-1.0, 2.0), Term(-2.9, 1.0)),
                beta="1",
                nu_squared=0.9025 - 1e-4,
                kind=RL,
            ),
            None,
        ),
        # G = -g^2 + 20 g - nu^2 peaks just above 0 at g = 10, both roots in
        # the last coarse cell, with no difference known above it
        (
            QuasiBesselEquation(
                terms=(Term(-1.0, 2.0), Term(19.0, 1.0)),
                beta="1",
                nu_squared=100.0 - 1e-6,
                kind=RL,
            ),
            10.005,
        ),
    ],
    ids=[
        "doubling",
        "three-pure",
        "integer-order",
        "first-cell",
        "close-pair",
        "exact-zero",
        "pair-in-first-coarse-cell",
        "pair-in-last-coarse-cell",
    ],
)
def test_find_roots_matches_scalar_grid_loop(eq, search_hi):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RootSearchWarning)
        roots = find_roots(eq) if search_hi is None else _find_roots_up_to(eq, search_hi)
        assert roots
        assert roots == _scalar_find_roots(eq, search_hi)


@pytest.mark.parametrize(
    "hi, gamma",
    [(11.5, -0.49999999904000003), (-0.5, -0.5)],
    ids=["zero-inside-window", "zero-at-window-top"],
)
def test_exact_zero_of_G_is_reported_once(hi, gamma):
    # RL D^1.5 u + 3 D^0.5 u: G(gamma) is exactly 0.0 wherever both
    # denominators Gamma(gamma - 0.5) and Gamma(gamma + 0.5) count as poles,
    # within TAU_POLE of -0.5.  With the window (-1, 11.5] a fine point
    # lands there; with (-1, -0.5] it is the window top.  Either way the
    # zero is one root, and the fine pair below it, whose values are
    # negative and 0.0, is not bisected into a second one
    eq = QuasiBesselEquation(
        terms=(Term(1.0, 1.5), Term(3.0, 0.5)), beta="1", nu_squared=0.0, kind=RL
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RootSearchWarning)
        roots = _find_roots_up_to(eq, hi)
    assert [r.gamma for r in roots] == [gamma]
    assert characteristic_value(eq, gamma) == 0.0


@st.composite
def _near_extremum_equation(draw):
    """1-3 pure terms with nu^2 just past a local extremum of
    G + nu^2 = sum d_i Q_i, so that G has two close roots there."""
    alphas = draw(st.lists(st.floats(0.01, 3.0), min_size=1, max_size=3))
    ds = [draw(st.floats(0.05, 3.0)) * draw(_SIDE) for _ in alphas]
    kind = draw(st.sampled_from((CAPUTO, RL)))
    bare = QuasiBesselEquation(
        terms=tuple(Term(d, a) for d, a in zip(ds, alphas)), beta="1", kind=kind
    )
    xs = [-1.0 + 15.0 * k / 400 for k in range(1, 401)]
    v = _grid_values(bare, xs)
    turns = [k for k in range(1, 399) if (v[k] - v[k - 1]) * (v[k + 1] - v[k]) < 0]
    assume(turns)
    k = draw(st.sampled_from(turns))
    peak = v[k] > v[k - 1]
    lo, hi = xs[k - 1], xs[k + 1]
    for _ in range(60):  # ternary search for the extremum
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if (characteristic_value(bare, m1) < characteristic_value(bare, m2)) == peak:
            lo = m1
        else:
            hi = m2
    top = characteristic_value(bare, 0.5 * (lo + hi))
    if top < 0:  # flip G + nu^2 so that the extremum value is >= 0
        ds, top, peak = [-d for d in ds], -top, not peak
    delta = 10.0 ** draw(st.floats(-8.0, -2.0)) * (1.0 + top)
    nu_squared = top - delta if peak else top + delta
    assume(nu_squared >= 0.0)
    return QuasiBesselEquation(
        terms=tuple(Term(d, a) for d, a in zip(ds, alphas)),
        beta="1",
        nu_squared=nu_squared,
        kind=kind,
    )


# one window, (-1, 15], holding every extremum drawn: the scalar reference
# costs ~10 ms per pure term and window, and the doublings are covered above
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(eq=_near_extremum_equation())
def test_find_roots_matches_scalar_grid_loop_near_extremum(eq):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RootSearchWarning)
        assert _find_roots_up_to(eq, 15.0) == _scalar_find_roots(eq, 15.0)
