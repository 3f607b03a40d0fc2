"""Numeric log-space points: classification, phases, flows, windings, blow-downs."""

import cmath
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ncmilnor.logspace import (
    ChartContext,
    CplPoint,
    LogspaceError,
    NonMotivicPointError,
    PolarCoord,
    TopPointError,
    UnitVanishingError,
    UnwrapError,
    chart_context,
    classify,
    effective_unit,
    f_mot,
    in_simplex,
    monodromy,
    point_from_json,
    point_to_json,
    psi_inverse,
    psi_map,
    pullback_motivic_value,
    quotient_to_top,
    recover_multiplicities,
    sigma_alog_chart,
    sign_f,
    sign_oracle,
    simplex_representative,
    xi,
)
from ncmilnor.model import Chart, UnitPoly, builtin_example

INF = math.inf


def test_divisor_coordinate_outside_the_chart():
    chart = Chart(1, {3: "x"}, UnitPoly.constant(1))
    with pytest.raises(LogspaceError, match="divisor coordinate 3 is outside"):
        CplPoint(ChartContext(chart, {3: 1}), (0j,), {3: PolarCoord(1.0, 1 + 0j)})


def ctx_for(name):
    return chart_context(builtin_example(name))


def make_xy_point(r1=1.0, t1=1 + 0j, r2=1.0, t2=1 + 0j):
    return CplPoint(ctx_for("xy"), (0, 0), {0: PolarCoord(r1, t1), 1: PolarCoord(r2, t2)})


def random_phase(rng):
    return cmath.exp(2j * math.pi * rng.random())


def random_mot_point(ctx, rng):
    coords = sorted(ctx.divisor_coords())
    base = [0j if i in coords else complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            for i in range(ctx.chart.dim)]
    polar = {c: PolarCoord(rng.uniform(0.3, 3.0), random_phase(rng)) for c in coords}
    return CplPoint(ctx, base, polar)


class TestPoints:
    def test_invariant_enforcement(self):
        ctx = ctx_for("xy")
        with pytest.raises(LogspaceError, match="unit modulus"):
            CplPoint(ctx, (0, 0), {0: PolarCoord(1.0, 2 + 0j), 1: PolarCoord(1.0, 1)})
        with pytest.raises(LogspaceError, match="positive"):
            CplPoint(ctx, (0, 0), {0: PolarCoord(0.0, 1), 1: PolarCoord(1.0, 1)})
        with pytest.raises(LogspaceError, match="exactly zero"):
            CplPoint(ctx, (0.5, 0), {0: PolarCoord(1.0, 1), 1: PolarCoord(1.0, 1)})
        with pytest.raises(LogspaceError, match="no polar data"):
            CplPoint(ctx, (0, 0), {0: PolarCoord(1.0, 1)})

    def test_non_finite_input_rejected(self):
        ctx = ctx_for("xy")
        nan = float("nan")
        with pytest.raises(LogspaceError, match="unit modulus"):
            CplPoint(ctx, (0, 0), {0: PolarCoord(1.0, complex(nan, 0)), 1: PolarCoord(1.0, 1)})
        with pytest.raises(LogspaceError, match="positive"):
            CplPoint(ctx, (0, 0), {0: PolarCoord(nan, 1), 1: PolarCoord(1.0, 1)})
        with pytest.raises(LogspaceError, match="not finite"):
            CplPoint(ctx, (nan, 0), {1: PolarCoord(1.0, 1)})
        # the boundary circle is the one infinite value a point may hold
        assert classify(make_xy_point(r1=INF)).tag == "mixed"

    def test_classify(self):
        assert classify(make_xy_point()).tag == "mot"
        assert classify(make_xy_point(r1=INF, r2=INF)).tag == "top"
        mixed = classify(make_xy_point(r2=INF))
        assert mixed.tag == "mixed"
        assert mixed.finite == frozenset({0})

    def test_json_round_trip(self):
        p = make_xy_point(r1=2.0, t1=1j, r2=INF, t2=-1 + 0j)
        again = point_from_json(p.chart, point_to_json(p))
        assert again == p


class TestSignF:
    def test_x2y3_phase_product(self):
        ctx = ctx_for("xa_yb_2_3")
        p = CplPoint(ctx, (0, 0), {0: PolarCoord(1.0, 1j), 1: PolarCoord(1.0, 1 + 0j)})
        assert abs(sign_f(p) - (-1)) < 1e-12  # i^2 * 1^3

    def test_identity_phases(self):
        assert abs(sign_f(make_xy_point()) - 1) < 1e-12

    def test_negative_unit(self):
        chart = Chart(1, {0: "x"}, UnitPoly.constant(-1))
        ctx = ChartContext(chart, {0: 1})
        p = CplPoint(ctx, (0,), {0: PolarCoord(1.0, 1 + 0j)})
        assert abs(sign_f(p) + 1) < 1e-12

    def test_unit_vanishing(self):
        # unit = y vanishes at the base point (0, 0)
        chart = Chart(2, {0: "x"}, UnitPoly({(0, 1): (1, 0)}))
        ctx = ChartContext(chart, {0: 1})
        p = CplPoint(ctx, (0, 0), {0: PolarCoord(1.0, 1 + 0j)})
        with pytest.raises(UnitVanishingError):
            sign_f(p)

    def test_nonvanishing_divisor_coordinate_feeds_the_unit(self):
        # on the x-divisor only, the y-coordinate contributes its phase
        ctx = ctx_for("xy")
        p = CplPoint(ctx, (0, -2.0), {0: PolarCoord(1.0, 1 + 0j)})
        assert abs(sign_f(p) + 1) < 1e-12

    def test_equivariance(self):
        rng = random.Random(7)
        ctx = ctx_for("xa_yb_2_3")
        for _ in range(100):
            p = random_mot_point(ctx, rng)
            z1, z2 = random_phase(rng), random_phase(rng)
            twisted = p.replace_polar({
                0: PolarCoord(p.polar_map()[0].radius, p.polar_map()[0].phase * z1),
                1: PolarCoord(p.polar_map()[1].radius, p.polar_map()[1].phase * z2),
            })
            assert abs(sign_f(twisted) - z1**2 * z2**3 * sign_f(p)) < 1e-9


class TestFMot:
    def test_xy_product(self):
        p = make_xy_point(r1=2.0, r2=3.0)
        assert abs(f_mot(p) - 6) < 1e-12

    def test_square_of_imaginary(self):
        ctx = ctx_for("power_2")
        p = CplPoint(ctx, (0,), {0: PolarCoord(1.0, 1j)})
        assert abs(f_mot(p) - (-1)) < 1e-12

    def test_mixed_point_rejected(self):
        with pytest.raises(NonMotivicPointError):
            f_mot(make_xy_point(r2=INF))

    def test_argument_matches_sign_f(self):
        rng = random.Random(11)
        for name in ("smooth", "power_2", "xy", "xa_yb_2_3"):
            ctx = ctx_for(name)
            for _ in range(50):
                p = random_mot_point(ctx, rng)
                gap = cmath.phase(f_mot(p) / sign_f(p))
                assert abs(gap) < 1e-9

    @pytest.mark.parametrize("name, radius", [
        ("power_2", 1e200),  # the complex power raises OverflowError
        ("power_100", 1e10),  # the complex power returns nan+nanj
    ])
    def test_value_out_of_float_range(self, name, radius):
        p = CplPoint(ctx_for(name), (0,), {0: PolarCoord(radius, 1 + 0j)})
        with pytest.raises(LogspaceError, match="value of the function is not finite"):
            f_mot(p)


class TestQuotientAndSimplex:
    def test_quotient_to_top(self):
        p = make_xy_point(r1=2.0, t1=1j, r2=5.0)
        q = quotient_to_top(p)
        assert classify(q).tag == "top"
        assert sign_f(q) == sign_f(p)  # no phase arithmetic happened
        assert quotient_to_top(q) == q

    def test_xi_values(self):
        ctx = ctx_for("xa_yb_2_3")
        p = CplPoint(ctx, (0, 0), {0: PolarCoord(1.0, 1), 1: PolarCoord(INF, 1)})
        assert xi(p) == {0: 0.5, 1: 0.0}

    def test_xi_reciprocal(self):
        ctx = ctx_for("xa_yb_2_3")
        p = CplPoint(ctx, (0, 0), {0: PolarCoord(0.5, 1), 1: PolarCoord(1 / 3, 1)})
        assert xi(p) == {0: 1.0, 1: 1.0}
        assert not in_simplex(p)

    def test_in_simplex(self):
        ctx = ctx_for("power_2")
        assert in_simplex(CplPoint(ctx, (0,), {0: PolarCoord(0.5, 1)}))
        assert not in_simplex(quotient_to_top(make_xy_point()))
        assert in_simplex(make_xy_point(r1=2.0, r2=2.0))

    def test_simplex_representative_scaling(self):
        ctx = ctx_for("smooth")
        p = CplPoint(ctx, (0, 1.0), {0: PolarCoord(2.0, 1j)})
        q = simplex_representative(p)
        assert q.polar_map()[0].radius == pytest.approx(1.0)
        assert q.polar_map()[0].phase == 1j
        assert in_simplex(q)

    def test_simplex_representative_two_coords(self):
        p = make_xy_point(r1=1.0, r2=1.0)
        q = simplex_representative(p)
        assert q.polar_map()[0].radius == pytest.approx(2.0)
        assert xi(q) == {0: pytest.approx(0.5), 1: pytest.approx(0.5)}

    def test_idempotence(self):
        rng = random.Random(41)
        ctx = ctx_for("xa_yb_2_3")
        for _ in range(50):
            q = simplex_representative(random_mot_point(ctx, rng))
            again = simplex_representative(q)
            for (_, a), (_, b) in zip(again.polar, q.polar):
                assert abs(a.radius - b.radius) < 1e-9

    def test_fixed_point(self):
        ctx = ctx_for("smooth")
        p = CplPoint(ctx, (0, 0.5), {0: PolarCoord(1.0, 1)})
        assert simplex_representative(p) == p

    def test_top_point_rejected(self):
        with pytest.raises(TopPointError):
            simplex_representative(quotient_to_top(make_xy_point()))

    def test_scale_covariance(self):
        rng = random.Random(3)
        ctx = ctx_for("xa_yb_2_3")
        for _ in range(50):
            p = random_mot_point(ctx, rng)
            t = rng.uniform(0.2, 5.0)
            scaled = p.replace_polar({
                c: PolarCoord(t * pc.radius, pc.phase) for c, pc in p.polar})
            for c in (0, 1):
                assert xi(scaled)[c] == pytest.approx(xi(p)[c] / t)


class TestMonodromy:
    def test_identity(self):
        p = make_xy_point(r1=0.7, t1=1j)
        assert monodromy(p, 0.0) == p

    def test_half_turn_single_coordinate(self):
        ctx = ctx_for("smooth")
        p = CplPoint(ctx, (0, 0), {0: PolarCoord(1.0, 1 + 0j)})
        q = monodromy(p, 0.5)
        assert abs(q.polar_map()[0].phase + 1) < 1e-12
        assert abs(sign_f(q) + sign_f(p)) < 1e-12

    def test_multiplicity_bound_keeps_phase_powers_bounded(self):
        # at N = 10**12 = 1/PHASE_TOL, |theta^N| <= e for every accepted phase
        chart = Chart(1, {0: "x"}, UnitPoly.constant(1))
        p = CplPoint(ChartContext(chart, {0: 10**12}), (0j,),
                     {0: PolarCoord(1.0, 1 + 0.9e-12)})
        assert 1 < abs(sign_f(p)) <= math.e

    def test_full_turn_mixed_multiplicities(self):
        ctx = ctx_for("xa_yb_1_2")
        p = simplex_representative(CplPoint(
            ctx, (0, 0), {0: PolarCoord(1.0, 1), 1: PolarCoord(2.0, 1j)}))
        q = monodromy(p, 1.0)
        assert abs(sign_f(q) - sign_f(p)) < 1e-9

    def test_preserves_radii_and_classification(self):
        p = make_xy_point(r1=0.3, r2=INF, t2=1j)
        q = monodromy(p, 0.37)
        assert [pc.radius for _, pc in q.polar] == [pc.radius for _, pc in p.polar]
        assert classify(q) == classify(p)
        assert xi(q) == xi(p)

    def test_rotation_and_group_law_on_simplex(self):
        rng = random.Random(23)
        for name in ("smooth", "power_2", "xy", "xa_yb_2_3"):
            ctx = ctx_for(name)
            for _ in range(100):
                p = simplex_representative(random_mot_point(ctx, rng))
                for lam in (0.1, 0.5, 1.0, math.sqrt(2)):
                    q = monodromy(p, lam)
                    assert abs(sign_f(q) - cmath.exp(2j * math.pi * lam) * sign_f(p)) < 1e-9
                mu, lam = rng.uniform(-2, 2), rng.uniform(-2, 2)
                two_step = monodromy(monodromy(p, lam), mu)
                one_step = monodromy(p, lam + mu)
                for (_, a), (_, b) in zip(two_step.polar, one_step.polar):
                    assert abs(a.phase - b.phase) < 1e-9


class TestRecovery:
    def test_two_slot_oracle(self):
        windings, phase = recover_multiplicities(
            lambda t: t[0] ** 2 * t[1] ** 3, 2, samples_per_loop=16)
        assert windings == (2, 3)
        assert abs(phase - 1) < 1e-12

    def test_negated_oracle(self):
        windings, phase = recover_multiplicities(lambda t: -t[0], 1, samples_per_loop=8)
        assert windings == (1,)
        assert abs(phase + 1) < 1e-12

    def test_constant_oracle(self):
        windings, _ = recover_multiplicities(lambda t: 1 + 0j, 1, samples_per_loop=8)
        assert windings == (0,)

    def test_too_coarse(self):
        # winding 5 at 10 samples per loop puts every step at exactly pi,
        # where the direction of rotation is ambiguous
        with pytest.raises(UnwrapError):
            recover_multiplicities(lambda t: t[0] ** 5, 1, samples_per_loop=10)

    def test_minimum_sampling_enforced(self):
        with pytest.raises(ValueError):
            recover_multiplicities(lambda t: t[0], 1, samples_per_loop=4)

    def test_model_charts(self):
        for name, expected in (("smooth", (1,)), ("power_4", (4,)),
                               ("xy", (1, 1)), ("xa_yb_2_3", (2, 3))):
            ctx = ctx_for(name)
            base = (0j,) * ctx.chart.dim
            windings, phase = recover_multiplicities(
                sign_oracle(ctx, base), len(ctx.divisor_coords()), samples_per_loop=16)
            assert windings == expected
            assert abs(phase - 1) < 1e-9

    def test_random_exponents(self):
        rng = random.Random(5)
        for _ in range(40):
            exponents = tuple(rng.randint(0, 20) for _ in range(rng.randint(1, 3)))
            sign = random_phase(rng)

            def oracle(t, exponents=exponents, sign=sign):
                value = sign
                for theta, n in zip(t, exponents):
                    value *= theta**n
                return value

            windings, phase = recover_multiplicities(oracle, len(exponents), 64)
            assert windings == exponents
            assert abs(phase - sign) < 1e-9


class TestPsi:
    def test_coprime_identity_inputs(self):
        ctx = ctx_for("xa_yb_2_3")
        p = CplPoint(ctx, (0, 0), {0: PolarCoord(1.0, 1), 1: PolarCoord(1.0, 1)})
        image = psi_map(p)
        assert image.order == 1
        assert abs(image.scale - 1) < 1e-12
        assert all(abs(w - 1) < 1e-12 for _, w in image.residual)
        assert psi_inverse(ctx, image.base, image.scale, image.residual_map()) == p

    def test_singleton(self):
        ctx = ctx_for("power_2")
        p = CplPoint(ctx, (0,), {0: PolarCoord(2.0, 1j)})
        image = psi_map(p)
        assert image.order == 2
        assert abs(image.scale - 2j) < 1e-12
        assert abs(image.residual_map()[0] - 1) < 1e-12

    def test_round_trip_and_constraints(self):
        rng = random.Random(17)
        for name in ("smooth", "power_2", "xy", "xa_yb_2_3"):
            ctx = ctx_for(name)
            order_of = {c: ctx.multiplicity(c) for c in ctx.divisor_coords()}
            for _ in range(200):
                p = random_mot_point(ctx, rng)
                image = psi_map(p)
                product = 1 + 0j
                for coord, w in image.residual:
                    product *= w ** (order_of[coord] // image.order)
                assert abs(product - 1) < 1e-9
                assert abs(f_mot(p) - image.scale**image.order
                           * effective_unit(p)) < 1e-9 * abs(f_mot(p))
                back = psi_inverse(ctx, image.base, image.scale, image.residual_map())
                for (_, a), (_, b) in zip(back.polar, p.polar):
                    assert abs(a.value() - b.value()) < 1e-9

    def test_mixed_point_rejected(self):
        with pytest.raises(NonMotivicPointError):
            psi_map(make_xy_point(r1=INF))

    @pytest.mark.parametrize("size", [1e-200, 1e200])
    def test_value_out_of_float_range(self, size):
        # value_1 = scale^alpha_1 * w_1 with alpha = (-1, 1) underflows to 0
        # or overflows; neither has a polar pair
        with pytest.raises(LogspaceError, match="value at coordinate 1 is zero or not finite"):
            psi_inverse(ctx_for("xa_yb_2_3"), (0j, 0j), size, {0: size, 1: size})


class TestSigmaChart:
    def test_xy_open_exceptional_point(self):
        # two divisor coordinates of multiplicity one; a point of the open
        # exceptional line over position a maps down to values (v, a*v)
        unit = UnitPoly.constant(1)
        a = 0.8 - 0.4j
        v = PolarCoord(1.3, cmath.exp(0.7j))
        down = sigma_alog_chart(2, {0: 1, 1: 1}, unit, 0, (0j, a), {0: v})
        values = {c: pc.value() for c, pc in down.polar}
        assert abs(values[0] - v.value()) < 1e-12
        assert abs(values[1] - a * v.value()) < 1e-12
        assert abs(f_mot(down) - a * v.value() ** 2) < 1e-12
        up = pullback_motivic_value(2, {0: 1, 1: 1}, unit, 0, (0j, a), {0: v})
        assert abs(up - f_mot(down)) < 1e-12 * abs(up)

    def test_corner_point_products(self):
        # one divisor coordinate; at the corner the downstairs value is the
        # product of the exceptional and strict-transform values
        unit = UnitPoly.constant(1)
        vE = PolarCoord(2.0, 1j)
        v0 = PolarCoord(0.5, -1 + 0j)
        down = sigma_alog_chart(2, {0: 1}, unit, 1, (0j, 0j), {1: vE, 0: v0})
        assert abs(down.polar_map()[0].value() - vE.value() * v0.value()) < 1e-12

    def test_modulus_multiplicativity(self):
        unit = UnitPoly.constant(1)
        vE = PolarCoord(1.0, cmath.exp(0.3j))
        v0 = PolarCoord(1.0, 1 + 0j)
        down = sigma_alog_chart(2, {0: 2}, unit, 1, (0j, 0j), {1: vE, 0: v0})
        assert abs(down.polar_map()[0].radius - 1.0) < 1e-12

    def test_input_validation(self):
        unit = UnitPoly.constant(1)
        with pytest.raises(LogspaceError, match="pivot"):
            sigma_alog_chart(2, {0: 1}, unit, 0, (0j, 0j), {1: PolarCoord(1, 1)})
        with pytest.raises(LogspaceError, match="must be exactly zero"):
            sigma_alog_chart(2, {0: 1}, unit, 1, (0j, 1 + 0j), {1: PolarCoord(1, 1)})
        # an exceptional boundary point lies over the boundary point with the
        # pivot's polar pair and phase theta_E * b_1/|b_1| at coordinate 1
        top = sigma_alog_chart(2, {0: 1, 1: 1}, unit, 0, (0j, 1j), {0: PolarCoord(INF, 1j)})
        assert top.polar == ((0, PolarCoord(INF, 1j)), (1, PolarCoord(INF, -1 + 0j)))
        assert classify(top).tag == "top"
        with pytest.raises(LogspaceError, match="vanishes but has no polar data"):
            sigma_alog_chart(2, {0: 1, 1: 1}, unit, 0, (0j, 0j), {0: PolarCoord(1, 1)})

    def test_downstairs_value_underflow(self):
        # the value at coordinate 1 is 1e-200 * 1e-200, which is 0 in floats
        with pytest.raises(LogspaceError, match="value at coordinate 1 is zero or not finite"):
            sigma_alog_chart(2, {0: 1, 1: 1}, UnitPoly.constant(1), 0, (0j, 1e-200 + 0j),
                             {0: PolarCoord(1e-200, 1 + 0j)})

    def test_diagram_commutes_on_random_points(self):
        rng = random.Random(29)
        for mults in ({0: 1, 1: 1}, {0: 2, 1: 3}):
            unit = UnitPoly.constant(1)
            for _ in range(200):
                q_choice = rng.choice(("none", "zero", "one"))
                if q_choice == "none":
                    pivot = rng.choice((0, 1))
                    other = 1 - pivot
                    base = [0j, 0j]
                    base[other] = complex(rng.uniform(0.2, 2), rng.uniform(-1, 1))
                    polar = {pivot: PolarCoord(rng.uniform(0.3, 3), random_phase(rng))}
                else:
                    strict = 0 if q_choice == "zero" else 1
                    pivot = 1 - strict
                    base = [0j, 0j]
                    polar = {
                        pivot: PolarCoord(rng.uniform(0.3, 3), random_phase(rng)),
                        strict: PolarCoord(rng.uniform(0.3, 3), random_phase(rng)),
                    }
                down = sigma_alog_chart(2, mults, unit, pivot, base, polar)
                up = pullback_motivic_value(2, mults, unit, pivot, base, polar)
                assert abs(up - f_mot(down)) < 1e-9 * abs(up)

    def test_diagram_commutes_with_a_nonconstant_unit(self):
        # dim 3, codim 2: the unit has terms inside the centre, which vanish
        # on the exceptional divisor, and terms in the coordinate past it,
        # which the blow-down keeps
        unit = UnitPoly({(): (2, 0), (1,): (5, 1), (0, 1, 1): (-3, 0),
                         (0, 0, 1): ("1/2", "1/3"), (0, 0, 3): (0, "1/4")})
        rng = random.Random(37)
        for mults in ({0: 1, 1: 1}, {0: 2, 1: 3}, {0: 3}, {1: 2}):
            for _ in range(100):
                pivot = rng.choice((0, 1))
                other = 1 - pivot
                base = [0j, 0j, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))]
                polar = {pivot: PolarCoord(rng.uniform(0.3, 3), random_phase(rng))}
                if other in mults and rng.random() < 0.5:
                    polar[other] = PolarCoord(rng.uniform(0.3, 3), random_phase(rng))
                else:
                    base[other] = complex(rng.uniform(0.2, 2), rng.uniform(-1, 1))
                down = sigma_alog_chart(2, mults, unit, pivot, base, polar)
                assert down.base == (0j, 0j, base[2])
                up = pullback_motivic_value(2, mults, unit, pivot, base, polar)
                assert abs(up - f_mot(down)) < 1e-9 * abs(up)


def sigma_point(codim, mults, unit, pivot, p):
    """``sigma_alog_chart`` of an upstairs point ``p``."""
    return sigma_alog_chart(codim, mults, unit, pivot, p.base, p.polar_map())


def exceptional_chart(codim, mults, unit, pivot, dim):
    """The exceptional chart by the paper's formulae, built here as an oracle:
    the unit pulled back, the exceptional coordinate of multiplicity sum N_k."""
    up_mults = {**mults, pivot: sum(mults.values())}
    chart = Chart(dim, {k: f"u{k}" for k in up_mults}, unit.pullback(codim, pivot))
    return ChartContext(chart, up_mults)


# a unit on the centre coordinates 0..codim-1 and one coordinate z past them:
# 2 + (terms that vanish on the exceptional divisor) + z/2 + i z^3/4, which
# keeps |unit| >= 5/4 for |z| <= 1 at every point of the exceptional divisor
def nonconstant_unit(codim):
    return UnitPoly({(): (2, 0), (1,): (5, 1), (0, 1): (-3, 0),
                     (0,) * codim + (1,): ("1/2", 0), (0,) * codim + (3,): (0, "1/4")})


@st.composite
def upstairs_points(draw):
    """(codim, multiplicities, pivot, point) with the point on the exceptional
    chart: every tag, both pivots, strict transforms and open positions."""
    codim = draw(st.sampled_from((2, 3)))
    divisors = draw(st.sets(st.integers(0, codim - 1), min_size=1))
    mults = {k: draw(st.integers(1, 7)) for k in sorted(divisors)}
    pivot = draw(st.integers(0, codim - 1))
    ctx = exceptional_chart(codim, mults, nonconstant_unit(codim), pivot, codim + 1)
    turn = st.floats(0, 1)
    radius = st.one_of(st.just(INF), st.floats(0.3, 3.0))

    def polar_pair():
        return PolarCoord(draw(radius), cmath.exp(2j * math.pi * draw(turn)))

    base = [0j] * codim + [draw(st.floats(0, 1)) * cmath.exp(2j * math.pi * draw(turn))]
    polar = {pivot: polar_pair()}
    for k in range(codim):
        if k == pivot:
            continue
        if k in mults and draw(st.booleans()):
            polar[k] = polar_pair()  # on the strict transform of divisor k
        else:
            base[k] = draw(st.floats(0.2, 2.0)) * cmath.exp(2j * math.pi * draw(turn))
    return codim, mults, pivot, CplPoint(ctx, base, polar)


class TestSigmaEveryTag:
    @settings(max_examples=300, deadline=None)
    @given(upstairs_points(), st.floats(-2, 2))
    def test_blow_down_laws(self, case, lam):
        codim, mults, pivot, up = case
        unit = nonconstant_unit(codim)
        down = sigma_point(codim, mults, unit, pivot, up)
        tag = classify(up).tag
        assert classify(down).tag in ({tag} if tag != "mixed" else {"mixed", "top"})
        assert abs(sign_f(down) - sign_f(up)) <= 1e-12
        assert (sigma_point(codim, mults, unit, pivot, quotient_to_top(up))
                == quotient_to_top(down))
        if tag == "top":
            return
        rep = simplex_representative(up)
        turned = sigma_point(codim, mults, unit, pivot, monodromy(rep, lam))
        rotation = cmath.exp(2j * math.pi * lam)
        assert abs(sign_f(turned)
                   - rotation * sign_f(sigma_point(codim, mults, unit, pivot, rep))) <= 1e-12
        if tag == "mot":
            value = pullback_motivic_value(codim, mults, unit, pivot, up.base, up.polar_map())
            assert abs(f_mot(down) - value) <= 1e-12 * abs(value)


class TestFibreParametrization:
    """The fibre of the blow-down at the origin of the plane, f = x^3, over
    the boundary point with phase theta, enumerated in both exceptional
    charts: pivot 0 (coordinate 1 is the position on the open exceptional
    line) and pivot 1 (coordinate 0 is the strict transform of x = 0)."""

    N = {0: 3}
    UNIT = UnitPoly.constant(1)
    THETA = cmath.exp(0.9j)

    def down(self, pivot, base, polar):
        return sigma_alog_chart(2, self.N, self.UNIT, pivot, base, polar)

    def assert_over_the_point(self, q):
        (coord, pc), = q.polar
        assert q.base == (0j, 0j) and coord == 0
        assert pc.radius == INF and abs(pc.phase - self.THETA) <= 1e-12

    def line_points(self, u):
        """The point of the open exceptional line at position u = y/x in
        both charts (in the pivot-1 chart only for u != 0)."""
        yield 0, (0j, u), {0: PolarCoord(INF, self.THETA)}
        if u:
            v = 1 / u  # x/y, and the exceptional phase is that of y = x u
            yield 1, (v, 0j), {1: PolarCoord(INF, self.THETA * u / abs(u))}

    def corner_points(self, phase_e):
        """Points at the corner of the pivot-1 chart with exceptional phase
        ``phase_e``: at least one of the two radii at the boundary."""
        strict = self.THETA / phase_e
        for r_e, r_strict in ((INF, INF), (INF, 0.5), (2.0, INF)):
            yield 1, (0j, 0j), {1: PolarCoord(r_e, phase_e), 0: PolarCoord(r_strict, strict)}

    def test_membership_and_consistency(self):
        rng = random.Random(31)
        for _ in range(100):
            u = complex(rng.gauss(0, 1), rng.gauss(0, 1))
            for pivot, base, polar in (*self.line_points(u),
                                       *self.corner_points(random_phase(rng))):
                q = self.down(pivot, base, polar)
                self.assert_over_the_point(q)
                assert abs(sign_f(q) - self.THETA**3) <= 1e-12

    def test_two_degrees_of_freedom(self):
        # a grid of positions on the open exceptional line: pairwise distinct
        # upstairs points over the one boundary point
        seen = set()
        for re in range(-3, 4):
            for im in range(-3, 4):
                for pivot, base, polar in self.line_points(complex(re, im)):
                    self.assert_over_the_point(self.down(pivot, base, polar))
                    seen.add((pivot, base))
        assert len(seen) == 49 + 48

    def test_boundary_circle(self):
        # the corner circle: exceptional and strict phases with product theta
        for step in range(16):
            phase_e = cmath.exp(2j * math.pi * step / 16)
            for pivot, base, polar in self.corner_points(phase_e):
                self.assert_over_the_point(self.down(pivot, base, polar))
                assert abs(polar[1].phase * polar[0].phase - self.THETA) <= 1e-12

    def test_boundary_coordinate_is_the_exceptional_phase(self):
        exceptional = PolarCoord(INF, self.THETA)
        q = self.down(0, (0j, 0.3 - 2j), {0: exceptional})
        assert q.polar == ((0, exceptional),)

    def test_points_off_the_fibre_miss_the_point(self):
        # a finite exceptional radius off the corner, two finite corner radii,
        # or a corner phase product other than theta lands elsewhere
        assert classify(self.down(0, (0j, 1j), {0: PolarCoord(2.0, self.THETA)})).tag == "mot"
        both_finite = {1: PolarCoord(2.0, 1j), 0: PolarCoord(0.5, -1j * self.THETA)}
        assert classify(self.down(1, (0j, 0j), both_finite)).tag == "mot"
        q = self.down(1, (0j, 0j), {1: PolarCoord(INF, 1j), 0: PolarCoord(INF, self.THETA)})
        assert q.polar_map()[0].radius == INF
        assert abs(q.polar_map()[0].phase - 1j * self.THETA) <= 1e-12
