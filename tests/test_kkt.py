"""The principal's stationarity system: evaluation, solver, affine readout."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from agentcap.cli import load_scenario
from agentcap.errors import (
    ConfigurationError,
    DegenerateFitError,
    InteriorityError,
    SingularJacobianError,
    UnsupportedCostError,
)
from agentcap.kkt import (
    PrincipalFocPoint,
    affine_representation_check,
    make_initial_point,
    phi_identity_gap,
    principal_foc_residual,
    solve_principal_foc,
)
from agentcap.model import (
    AgentUtility,
    Contract,
    Distribution,
    OutputFunction,
    QuadraticCost,
    RelativeEntropyCost,
    Scenario,
    StateSpace,
    TableCost,
    simplex_lattice,
)

from conftest import referee_best_payoff, share_scenario, share_scenario3


def point(b, p, **kw):
    n = len(b)
    args = dict(rho=0.0, tau=0.0, delta=0.0, zeta=0.0, phi=tuple(0.0 for _ in range(n)))
    args.update(kw)
    return PrincipalFocPoint(b=Contract(b), p=Distribution(p), **args)


# -- residual evaluation ----------------------------------------------------


def test_residuals_at_zero_multipliers():
    s = share_scenario(0.2)
    res = principal_foc_residual(s, point((0.0, 1.0), (0.5, 0.5)))
    # b = y and p = q0: the contract row closes on its own, the multiplier
    # row reports -p, and the agent row is u - g = b
    assert res.stationarity_b == (0.0, 0.0)
    assert res.stationarity_p == (-0.5, -0.5)
    assert res.orthogonality == 0.0
    assert res.agent_foc == (0.0, 1.0)
    assert res.simplex_gap == 0.0
    assert res.capacity_gap == pytest.approx(0.2, abs=1e-15)
    assert res.participation_gap == pytest.approx(0.5, abs=1e-15)
    # the feasibility gaps stay out of the headline residual
    assert res.max_abs == 1.0


def test_residuals_dimension_guard():
    s = share_scenario(0.2)
    with pytest.raises(ConfigurationError):
        principal_foc_residual(s, point((0.0, 1.0), (0.5, 0.5), phi=(0.0, 0.0, 0.0)))


def test_residuals_need_smooth_cost_and_interior_p():
    pts = simplex_lattice(2, 10)
    table = TableCost(tuple(map(tuple, pts)), tuple(0.0 for _ in pts))
    s = share_scenario(0.2)
    tabled = Scenario(
        states=s.states, y=s.y, cost=table, capacity=10.0, family=s.family,
        utility=s.utility, reservation=0.0, m=10,
    )
    with pytest.raises(UnsupportedCostError):
        principal_foc_residual(tabled, point((0.0, 1.0), (0.5, 0.5)))
    with pytest.raises(InteriorityError):
        principal_foc_residual(s, point((0.0, 1.0), (1.0, 0.0)))


def test_phi_identity_gap():
    s = share_scenario(0.2)
    # zeta = -1 with a risk-neutral agent forces phi = 0
    assert phi_identity_gap(s, point((0.0, 1.0), (0.5, 0.5), zeta=-1.0)) == 0.0
    assert phi_identity_gap(s, point((0.0, 1.0), (0.5, 0.5), zeta=0.0)) == 0.5


# -- solver, capacity slack -------------------------------------------------


def test_solve_two_state_slack():
    s = share_scenario(0.2)
    pt = solve_principal_foc(s, make_initial_point(s))
    assert pt.converged
    assert pt.system_residual <= 1e-10
    assert pt.residuals.max_abs <= 1e-8
    assert np.allclose(pt.b.payments, (-0.625, 0.375), atol=1e-6)
    assert np.allclose(pt.p.probs, (0.25, 0.75), atol=1e-6)
    assert abs(pt.delta) <= 1e-8  # pinned off
    assert pt.zeta == pytest.approx(-1.0, abs=1e-6)
    # capacity is slack by 0.075 and that is not an error
    assert pt.residuals.capacity_gap == pytest.approx(0.075, abs=1e-6)
    assert pt.residuals.participation_gap == pytest.approx(0.0, abs=1e-8)
    assert phi_identity_gap(s, pt) <= 1e-8


def test_solve_three_state_slack():
    s = share_scenario3(0.2)
    pt = solve_principal_foc(s, make_initial_point(s))
    assert pt.converged
    assert np.allclose(pt.b.payments, (-0.625, -0.125, 0.375), atol=1e-6)
    assert np.allclose(pt.p.probs, (1 / 12, 1 / 3, 7 / 12), atol=1e-6)
    p = np.array(pt.p.probs)
    principal = float(p @ (s.y.as_array() - np.array(pt.b.payments)))
    assert principal == pytest.approx(0.625, abs=1e-6)


def test_solve_two_state_binding_capacity():
    s = share_scenario(0.05)
    pt = solve_principal_foc(s, make_initial_point(s), capacity_active=True)
    assert pt.converged
    assert pt.residuals.max_abs <= 1e-8
    assert abs(pt.residuals.capacity_gap) <= 1e-8
    p = np.array(pt.p.probs)
    b = np.array(pt.b.payments)
    assert p[1] == pytest.approx(0.5 + math.sqrt(0.025), abs=1e-8)
    assert float(p @ b) == pytest.approx(0.05, abs=1e-8)  # participation at the cap
    assert float(p @ (s.y.as_array() - b)) == pytest.approx(
        0.5 + math.sqrt(0.025) - 0.05, abs=1e-8
    )


def _entropy_cara(states):
    """``entropy-share-cara.json`` (theta = 1.5, CARA a = 2, y = (0, 1.5)),
    or its three-state variant with y = (0, 0.75, 1.5) and a uniform q0."""
    s, _ = load_scenario(Path(__file__).with_name("scenario_format") / "entropy-share-cara.json")
    if states == 2:
        return s
    return dataclasses.replace(
        s, states=StateSpace(("L", "M", "H")), y=OutputFunction((0.0, 0.75, 1.5)),
        cost=RelativeEntropyCost(s.cost.theta, (1 / 3, 1 / 3, 1 / 3)),
    )


@pytest.mark.parametrize("states,fraction", [(2, 0.5), (2, 0.8), (3, 0.5)])
def test_binding_capacity_solve_meets_the_referee(states, fraction):
    # a risk-averse agent, k a fraction of the unconstrained optimum's cost:
    # the solved contract is the cheapest that implements its p, so no
    # contract the referee's spread search finds pays the principal more
    s = _entropy_cara(states)
    free = solve_principal_foc(s, make_initial_point(s))
    assert free.converged
    s = dataclasses.replace(s, capacity=fraction * float(s.cost.value(free.p.as_array())))
    pt = solve_principal_foc(s, make_initial_point(s), capacity_active=True)
    assert pt.converged
    assert abs(pt.residuals.capacity_gap) <= 1e-10
    payoff = float(pt.p.as_array() @ (s.y.as_array() - pt.b.as_array()))
    assert payoff >= referee_best_payoff(s) - 1e-6
    assert pt.delta >= 0.0


def test_solve_reports_nonconvergence():
    s = share_scenario(0.2)
    pt = solve_principal_foc(s, make_initial_point(s), max_iter=0)
    assert not pt.converged
    assert pt.system_residual > 1e-10
    assert pt.residuals is not None


def test_solve_singular_jacobian():
    zero_cost = Scenario(
        states=StateSpace(("L", "H")),
        y=OutputFunction((0.0, 1.0)),
        cost=QuadraticCost(((0.0, 0.0), (0.0, 0.0)), (0.5, 0.5)),
        capacity=1.0,
        family=share_scenario(0.2).family,
        utility=AgentUtility("risk_neutral"),
        reservation=0.0,
        m=100,
    )
    with pytest.raises(SingularJacobianError) as exc:
        solve_principal_foc(zero_cost, make_initial_point(zero_cost))
    assert exc.value.condition_number > 1e12


@pytest.mark.parametrize("kw", [
    dict(tol=float("nan")), dict(tol=-1.0), dict(tol=0.0), dict(tol=float("inf")), dict(max_iter=-1),
], ids=["tol-nan", "tol-negative", "tol-zero", "tol-inf", "max_iter-negative"])
def test_solve_rejects_bad_stopping_rule(kw):
    s = share_scenario(0.2)
    with pytest.raises(ConfigurationError):
        solve_principal_foc(s, make_initial_point(s), **kw)


@pytest.mark.parametrize("capacity,active", [(0.2, False), (0.05, True)])
def test_solved_point_reports_the_system_it_solved(capacity, active):
    s = share_scenario(capacity)
    pt = solve_principal_foc(s, make_initial_point(s), capacity_active=active)
    assert pt.converged
    assert principal_foc_residual(s, pt) == pt.residuals


def test_initial_point_is_interior_and_cheap():
    s = share_scenario(0.2)
    pt = make_initial_point(s)
    assert min(pt.p.probs) > 0.0
    assert pt.zeta == 0.0
    res = principal_foc_residual(s, pt)
    # rho is fitted, so the agent rows start small even before solving
    assert max(abs(v) for v in res.agent_foc) <= 0.5


def test_solve_cara_two_state():
    s = Scenario(
        states=StateSpace(("L", "H")),
        y=OutputFunction((0.0, 1.0)),
        cost=QuadraticCost(((1.0, 0.0), (0.0, 1.0)), (0.5, 0.5)),
        capacity=0.2,
        family=share_scenario(0.2).family,
        utility=AgentUtility("cara", a=1.0),
        reservation=0.0,
        m=100,
    )
    pt = solve_principal_foc(s, make_initial_point(s))
    assert pt.converged
    # the phi identity is the multiplier row solved for phi, so it holds
    # wherever the solver zeroed that row, with u' != 1 as well
    assert phi_identity_gap(s, pt) <= 1e-8
    aff = affine_representation_check(s, pt)
    # two states cannot reject the three-regressor affine form
    assert aff.fit_residual <= 1e-12


# -- affine readout ---------------------------------------------------------


def test_affine_readout_two_state_slack():
    s = share_scenario(0.2)
    pt = solve_principal_foc(s, make_initial_point(s))
    aff = affine_representation_check(s, pt)
    assert aff.slope == pytest.approx(1.0, abs=1e-6)
    assert aff.intercept == pytest.approx(0.625, abs=1e-6)
    assert aff.fit_residual <= 1e-12


def test_affine_readout_three_state_slack():
    s = share_scenario3(0.2)
    pt = solve_principal_foc(s, make_initial_point(s))
    aff = affine_representation_check(s, pt)
    assert aff.slope == pytest.approx(1.0, abs=1e-6)
    assert aff.intercept == pytest.approx(0.625, abs=1e-6)
    assert aff.fit_residual <= 1e-6


@pytest.mark.parametrize("zeta_gap", [-1.6e-11, 1.4e-11, -8.5e-13])
def test_affine_readout_counts_solve_noise_as_no_curvature(zeta_gap):
    # a risk-neutral agent at zeta = -1 up to the solve's noise, as on three
    # benchmark kkt solves (zeta + 1 of -1.6e-11, 1.4e-11 and -8.5e-13 at
    # system residuals of 5e-12 to 2e-13), where least squares gave the noise
    # regressor an arbitrary coefficient (0.018, 0.92 and -0.36)
    s = share_scenario3(0.2)
    b, p = (0.1, 0.45, 1.2), (0.2, 0.3, 0.5)
    noisy = point(b, p, zeta=-1.0 + zeta_gap, system_residual=5e-12)
    aff = affine_representation_check(s, noisy)
    design = np.column_stack([s.y.as_array(), np.ones(3)])
    coef, *_ = np.linalg.lstsq(design, np.array(b), rcond=None)
    assert aff.curvature == 0.0
    assert (aff.slope, aff.intercept) == (float(coef[0]), float(-coef[1]))
    assert aff.fit_residual == float(np.linalg.norm(design @ coef - np.array(b)))
    # a point with no system residual, or with a factor more than
    # CURVATURE_NOISE times its residual, keeps the three-regressor fit,
    # which three states make exact
    for kept in (point(b, p, zeta=-1.0 + zeta_gap),
                 point(b, p, zeta=-1.0 + zeta_gap, system_residual=abs(zeta_gap) / 2e3)):
        assert affine_representation_check(s, kept).curvature != 0.0


@pytest.mark.parametrize("a", [1e-3, 1e-5, 1e-6])
def test_affine_readout_keeps_a_mildly_risk_averse_agents_curvature(a):
    # a CARA agent's factor 1/u'(b) + zeta is about a times the payments'
    # spread: at a = 1e-6 about 1e-6, below the square root of the solve's
    # residual (2e-11) but far above the residual itself; its curvature is
    # real, and the three-state fit is exact with it
    s = dataclasses.replace(share_scenario3(0.2), utility=AgentUtility("cara", a=a))
    pt = solve_principal_foc(s, make_initial_point(s))
    assert pt.converged
    aff = affine_representation_check(s, pt)
    assert aff.curvature == pytest.approx(1.0, rel=1e-6)
    assert aff.fit_residual <= 1e-12


def test_affine_readout_rejects_constant_output():
    s = share_scenario(0.2)
    flat = Scenario(
        states=s.states, y=OutputFunction((1.0, 1.0)), cost=s.cost,
        capacity=s.capacity, family=s.family, utility=s.utility,
        reservation=0.0, m=s.m,
    )
    with pytest.raises(DegenerateFitError):
        affine_representation_check(flat, point((0.0, 1.0), (0.5, 0.5)))
