"""Two-date payoffs, single-date reduction, and the discounted slack chain."""

import dataclasses

import numpy as np
import pytest

from agentcap.agent import best_response_grid
from agentcap.discounting import (
    DatedProfile,
    DiscountedSlacks,
    DatedSchedule,
    DiscountPair,
    dated_best_response,
    discounted_inequality_diagnostic,
    discounted_values,
    reduce_single_date,
)
from agentcap.errors import ConfigurationError, DegenerateDiscountError, ValidationError
from agentcap.model import Distribution
from agentcap.scaling import InequalitySlacks

from conftest import dated_case, effort_scenario, table_scenario, tangent_scenario, verify_inequalities
from test_scaling import tangent_profile


# -- types ------------------------------------------------------------------


def test_dated_schedule_shape_and_helper():
    sched = DatedSchedule(((0.0, 1.0), (0.5, 0.5)))
    assert sched.n == 2
    assert sched.as_array().shape == (2, 2)
    at1 = DatedSchedule.at_date(1, (0.2, 0.3))
    assert at1.values == ((0.0, 0.0), (0.2, 0.3))
    at0 = DatedSchedule.at_date(0, (0.2, 0.3))
    assert at0.values == ((0.2, 0.3), (0.0, 0.0))
    with pytest.raises(ValidationError):
        DatedSchedule(((0.0, 1.0), (0.5,)))
    with pytest.raises(ValidationError):
        DatedSchedule(((0.0, float("inf")), (0.0, 0.0)))


def test_discount_pair_bounds():
    DiscountPair(1.0, 0.0)
    with pytest.raises(ValidationError):
        DiscountPair(1.1, 0.5)
    with pytest.raises(ValidationError):
        DiscountPair(0.5, -0.1)


# -- discounted evaluation --------------------------------------------------


def test_discounted_values_hand_case():
    d = DiscountPair(1.0, 0.5)
    y2 = DatedSchedule(((0.0, 1.0), (0.0, 1.0)))
    b2 = DatedSchedule.at_date(1, (0.0, 1.0))
    principal, agent_gross = discounted_values(d, y2, b2, Distribution((0.8, 0.2)))
    assert agent_gross == pytest.approx(0.1, abs=1e-12)
    assert principal == pytest.approx(0.2 + (0.2 - 0.2), abs=1e-12)


def test_discounted_values_repeated_output_doubles():
    d = DiscountPair(1.0, 1.0)
    y2 = DatedSchedule(((0.0, 1.0), (0.0, 1.0)))
    none = DatedSchedule(((0.0, 0.0), (0.0, 0.0)))
    p = Distribution((0.7, 0.3))
    principal, _ = discounted_values(d, y2, none, p)
    assert principal == pytest.approx(2 * 0.3, abs=1e-12)


def test_discounted_values_width_guard():
    d = DiscountPair(1.0, 1.0)
    wide = DatedSchedule(((0.0, 1.0, 2.0), (0.0, 0.0, 0.0)))
    with pytest.raises(ValidationError):
        discounted_values(d, wide, wide, Distribution((0.5, 0.5)))
    with pytest.raises(ValidationError, match="^schedule width must match the state count$"):
        dated_best_response(tangent_scenario(0.04, m=100), d, wide)


# -- dated best response and reduction --------------------------------------


def test_dated_zero_second_date_is_static():
    s = tangent_scenario(0.04, m=100)
    b = (0.0, 0.4)
    dated = dated_best_response(s, DiscountPair(0.7, 0.3), DatedSchedule.at_date(0, b))
    static = best_response_grid(s, b)
    assert dated.maximizers == static.maximizers
    assert dated.value == static.value
    assert dated.any_binding == static.any_binding


def test_reduce_date_zero_is_identity():
    s = tangent_scenario(0.04, m=100)
    assert reduce_single_date(s, DiscountPair(1.0, 0.5), 0) is s


def test_reduce_date_one_rescales_cost():
    s = tangent_scenario(0.04, m=100)
    d = DiscountPair(1.0, 0.5)
    red = reduce_single_date(s, d, 1)
    assert red.capacity == pytest.approx(0.08)
    assert red.cost.value(np.array([0.8, 0.2])) == pytest.approx(0.08, abs=1e-12)
    b = (0.0, 0.4)
    static = best_response_grid(red, b)
    assert [q.probs for q in static.maximizers] == [(0.9, 0.1)]
    dated = dated_best_response(s, d, DatedSchedule.at_date(1, b))
    assert dated.maximizers == static.maximizers
    # objectives differ by the factor delta_A
    assert dated.value == pytest.approx(d.delta_A * static.value, abs=1e-12)


@pytest.mark.parametrize("make", [table_scenario, effort_scenario], ids=["table", "effort"])
def test_reduce_date_one_scales_a_lookup_cost(make):
    s = make()
    red = reduce_single_date(s, DiscountPair(1.0, 0.5), 1)
    assert type(red.cost) is type(s.cost)
    pts = s.lattice.points
    assert red.cost.value_many(pts).tolist() == (2.0 * s.cost.value_many(pts)).tolist()
    assert red.capacity == 2.0 * s.capacity


def test_reduce_guards():
    s = tangent_scenario(0.04, m=100)
    with pytest.raises(ConfigurationError):
        reduce_single_date(s, DiscountPair(1.0, 0.5), 2)
    with pytest.raises(DegenerateDiscountError):
        reduce_single_date(s, DiscountPair(1.0, 0.0), 1)


def test_dated_equals_reduced_on_random_cases():
    for seed in range(10):
        sc, d, b2, date, b = dated_case(seed)
        dated = dated_best_response(sc, d, b2)
        static = best_response_grid(reduce_single_date(sc, d, date), b)
        assert dated.maximizers == static.maximizers


# -- diagnostic chain -------------------------------------------------------


def static_pair(s):
    base = tangent_profile(s, 0.4, 1.0)
    cand = tangent_profile(s, 0.2, 0.2)
    return base, cand


def test_diagnostic_matches_static_chain_when_degenerate():
    s = tangent_scenario(0.04)
    base, cand = static_pair(s)
    d = DiscountPair(1.0, 1.0)
    y2 = DatedSchedule.at_date(0, s.y.values)
    dbase = DatedProfile(b=DatedSchedule.at_date(0, base.contract.payments), dist=base.dist)
    dcand = DatedProfile(b=DatedSchedule.at_date(0, cand.contract.payments), dist=cand.dist)
    got = discounted_inequality_diagnostic(s, d, y2, dbase, dcand, 0.2)
    want = verify_inequalities(s, 0.2, base, cand)
    assert got.sign_guaranteed
    assert got.output_payment == pytest.approx(want.output_payment, abs=1e-12)
    assert got.payment_scaled_output == pytest.approx(want.payment_scaled_output, abs=1e-12)
    assert got.scaled_output == pytest.approx(want.scaled_output, abs=1e-12)
    assert got.participation == pytest.approx(want.participation, abs=1e-12)


def test_diagnostic_identical_profiles_are_zero():
    s = tangent_scenario(0.04)
    base, _ = static_pair(s)
    d = DiscountPair(0.9, 0.6)
    y2 = DatedSchedule.at_date(0, s.y.values)
    dbase = DatedProfile(b=DatedSchedule.at_date(0, base.contract.payments), dist=base.dist)
    got = discounted_inequality_diagnostic(s, d, y2, dbase, dbase, 0.5)
    assert got.d_output == 0.0 and got.d_payment == 0.0
    assert got.min_slack() == 0.0


def test_diagnostic_negative_slack_witness():
    s = tangent_scenario(0.04, m=100)
    d = DiscountPair(1.0, 0.5)
    y2 = DatedSchedule(((0.0, 1.0), (0.0, 1.0)))
    base = DatedProfile(
        b=DatedSchedule(((0.0, 0.0), (0.0, 0.0))), dist=Distribution((0.8, 0.2))
    )
    cand = DatedProfile(
        b=DatedSchedule(((0.0, 0.1), (0.0, 0.1))), dist=Distribution((0.9, 0.1))
    )
    got = discounted_inequality_diagnostic(s, d, y2, base, cand, 0.4)
    # with payments on both dates and delta_P != delta_A the chain is only a
    # diagnostic; this pair pushes the second slack below zero
    assert not got.sign_guaranteed
    assert got.d_output == pytest.approx(0.2, abs=1e-12)
    assert got.d_payment == pytest.approx(-0.015, abs=1e-12)
    assert got.output_payment == pytest.approx(0.215, abs=1e-12)
    assert got.payment_scaled_output == pytest.approx(-0.095, abs=1e-12)
    assert got.scaled_output == pytest.approx(0.08, abs=1e-12)
    assert got.participation == pytest.approx(0.045, abs=1e-12)
    assert got.min_slack() < 0


def test_diagnostic_sign_guarantee_rules():
    s = tangent_scenario(0.04, m=100)
    y2 = DatedSchedule(((0.0, 1.0), (0.0, 1.0)))
    p = Distribution((0.8, 0.2))
    date1_only = DatedProfile(b=DatedSchedule.at_date(1, (0.0, 0.1)), dist=p)
    both_dates = DatedProfile(b=DatedSchedule(((0.0, 0.1), (0.0, 0.1))), dist=p)
    unequal = DiscountPair(1.0, 0.5)
    equal = DiscountPair(0.5, 0.5)
    assert discounted_inequality_diagnostic(s, unequal, y2, date1_only, date1_only, 0.5).sign_guaranteed
    assert discounted_inequality_diagnostic(s, equal, y2, both_dates, both_dates, 0.5).sign_guaranteed
    assert not discounted_inequality_diagnostic(s, unequal, y2, both_dates, both_dates, 0.5).sign_guaranteed
    with pytest.raises(ConfigurationError):
        discounted_inequality_diagnostic(s, equal, y2, both_dates, both_dates, 1.5)


def test_discounted_slacks_extend_the_static_chain():
    names = [f.name for f in dataclasses.fields(DiscountedSlacks)]
    assert names == [
        "output_payment",
        "payment_scaled_output",
        "scaled_output",
        "participation",
        "d_output",
        "d_payment",
        "sign_guaranteed",
    ]
    assert names[:-1] == [f.name for f in dataclasses.fields(InequalitySlacks)]
    sl = DiscountedSlacks.chain(0.5, 2.0, 1.5, 1.0, sign_guaranteed=False)
    assert isinstance(sl, InequalitySlacks)
    assert sl == DiscountedSlacks(0.5, 0.5, 1.0, -0.5, 2.0, 1.5, False)
    assert sl.min_slack() == -0.5
