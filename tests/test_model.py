"""Core types: costs, utilities, contract families, lattices, validation."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentcap import model
from agentcap.cli import scenario_to_dict
from agentcap.errors import (
    DifferentiabilityError,
    InteriorityError,
    UndefinedCostPointError,
    ValidationError,
)
from agentcap.model import (
    AgentUtility,
    Contract,
    ContractFamily,
    DebtFamily,
    Distribution,
    EffortCost,
    GridFamily,
    LinearShareFamily,
    LiveOrDieFamily,
    MonotoneBoundedSlopeFamily,
    OutputFunction,
    QuadraticCost,
    RelativeEntropyCost,
    Scenario,
    StateSpace,
    TableCost,
    check_payments,
    check_probabilities,
    cost,
    grid_values,
    simplex_lattice,
    validate_scenario,
)

from conftest import (
    einsum_quadratic_cost,
    fd_gradient,
    fd_hessian,
    matrix_entropy_cost,
    tangent_scenario,
)


# -- value types ------------------------------------------------------------


def test_state_space_invariants():
    assert StateSpace(("L", "H")).n == 2
    with pytest.raises(ValidationError):
        StateSpace(("only",))
    with pytest.raises(ValidationError):
        StateSpace(("a", "a"))


def test_distribution_sum_guard():
    Distribution((0.3, 0.7))
    Distribution((0.3, 0.7 + 5e-13))
    with pytest.raises(ValidationError):
        Distribution((0.3, 0.7 + 5e-12))
    with pytest.raises(ValidationError):
        Distribution((-0.1, 1.1))


def test_distribution_refuses_nan():
    # a NaN makes the sum NaN, and NaN fails both comparisons
    for row in [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)]:
        with pytest.raises(ValidationError, match="^probabilities must sum to 1 within 1e-12$"):
            Distribution(row)
        with pytest.raises(ValidationError):
            check_probabilities(np.array([[0.5, 0.5], row]))


def test_distribution_refuses_infinities_without_a_warning():
    # inf - inf sums to NaN, which fails the comparison; numpy's "invalid
    # value" warning would be an error here
    for row in [(math.inf, -math.inf), (-math.inf, math.inf, 1.0), (math.inf, 0.0), (-math.inf, 2.0)]:
        with pytest.raises(ValidationError, match="^probabilities must sum to 1 within 1e-12$"):
            Distribution(row)
        with pytest.raises(ValidationError, match="^probabilities must sum to 1 within 1e-12$"):
            check_probabilities(np.array([[1.0] + [0.0] * (len(row) - 1), row]))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("make", [
    lambda v: QuadraticCost(((v, 0.0), (0.0, 1.0)), (0.0, 0.0)),
    lambda v: QuadraticCost(((1.0, 0.0), (0.0, 1.0)), (v, 0.0)),
    lambda v: RelativeEntropyCost(v, (0.5, 0.5)),
    lambda v: RelativeEntropyCost(1.0, (0.5, v)),
    lambda v: TableCost(((1.0, 0.0), (0.0, v)), (0.0, 1.0)),
    lambda v: TableCost(((1.0, 0.0), (0.0, 1.0)), (0.0, v)),
    lambda v: EffortCost((0.0, v), ((0.9, 0.1), (0.4, 0.6)), (0.0, 0.3)),
    lambda v: EffortCost((0.0, 1.0), ((0.9, 0.1), (v, 0.6)), (0.0, 0.3)),
    lambda v: EffortCost((0.0, 1.0), ((0.9, 0.1), (0.4, 0.6)), (v, 0.3)),
    lambda v: AgentUtility("cara", a=v),
    lambda v: AgentUtility("crra", gamma=v),
    lambda v: AgentUtility("crra", gamma=1.0, shift=v),
], ids=["Q", "quadratic-q0", "theta", "entropy-q0", "points", "values", "efforts", "distributions",
        "costs", "a", "gamma", "shift"])
def test_cost_and_utility_numbers_must_be_finite(make, value):
    # refused before any arithmetic on the value: warnings are errors here
    with pytest.raises(ValidationError):
        make(value)


@pytest.mark.parametrize("make,text", [
    (lambda: TableCost((), ()), "table cost needs at least one point"),
    (lambda: EffortCost((), (), ()), "effort cost needs at least one effort level"),
    (lambda: LinearShareFamily((), (0.0,)), "linear-share family needs beta and w grids"),
    (lambda: DebtFamily(()), "debt family needs a face-value grid"),
    (lambda: LiveOrDieFamily(()), "live-or-die family needs a threshold grid"),
], ids=["table", "effort", "linear-share", "debt", "live-or-die"])
def test_empty_constructors_name_what_is_missing(make, text):
    with pytest.raises(ValidationError, match=f"^{text}$"):
        make()


def test_effort_distributions_must_share_one_length():
    # the cost's dimension is read off its first distribution
    with pytest.raises(ValidationError, match="^effort distributions must all have the same length$"):
        EffortCost((0.0, 1.0), ((0.9, 0.1), (0.2, 0.3, 0.5)), (0.0, 0.3))


def test_contract_and_output_reject_nonfinite():
    with pytest.raises(ValidationError):
        Contract((0.0, math.inf))
    with pytest.raises(ValidationError):
        OutputFunction((0.0, math.nan))


def _raises(f, *args) -> str | None:
    try:
        f(*args)
    except ValidationError as exc:
        return str(exc)
    return None


def test_matrix_checks_are_the_value_objects_checks_row_by_row():
    """``check_probabilities`` and ``check_payments`` over a matrix raise
    what ``Distribution`` and ``Contract`` raise on its first failing row."""
    prob_rows = [
        (0.3, 0.7), (0.3, 0.7 + 5e-13), (0.3, 0.7 + 5e-12), (-0.1, 1.1),
        (1.0 + 5e-13, -5e-13), (1.0 + 2e-12, -2e-12), (0.2, 0.3, 0.5), (math.nan, 1.0),
    ]
    for row in prob_rows:
        want = _raises(Distribution, row)
        assert _raises(check_probabilities, np.array(row)) == want, row
        assert _raises(check_probabilities, np.array([[1.0 / len(row)] * len(row), row])) == want, row
    assert _raises(check_probabilities, np.ones((1, 0))) == _raises(Distribution, ())
    assert _raises(check_probabilities, np.ones((0, 3))) is None  # no rows to check
    for row in [(0.0, 1.5), (0.0, math.inf), (math.nan, 0.0), (-math.inf, 1.0)]:
        want = _raises(Contract, row)
        assert _raises(check_payments, np.array([[0.0, 0.0], row])) == want, row
    # the lattice and the effort cost's points pass as a whole
    check_probabilities(simplex_lattice(4, 37))
    eff = EffortCost((0.0, 1.0), ((0.9, 0.1), (0.4, 0.6)), (0.0, 0.3))
    check_probabilities(eff.enumerable_points())


# -- cost kinds -------------------------------------------------------------


def test_quadratic_cost_value_and_derivatives():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 3))
    q = a @ a.T
    q0 = np.array([0.2, 0.3, 0.5])
    c = QuadraticCost(tuple(map(tuple, q)), tuple(q0))
    p = np.array([0.5, 0.2, 0.3])
    d = p - q0
    assert c.value(p) == pytest.approx(float(d @ q @ d), abs=1e-14)
    many = c.value_many(np.stack([p, q0]))
    assert many[0] == pytest.approx(c.value(p), abs=1e-14)
    assert many[1] == 0.0
    assert np.allclose(c.gradient(p), fd_gradient(c.value, p), atol=1e-7)
    assert np.allclose(c.hessian(p), fd_hessian(c.value, p), atol=1e-5)
    s = c.scaled(3.0)
    assert s.value(p) == pytest.approx(3.0 * c.value(p), rel=1e-12)


def kernel_cases(n, rng):
    """Point matrices and baselines for the cost kernel oracles: random
    interior points, points with zero coordinates, and two lattices; a
    random baseline and one on a lattice point."""
    lattice = np.asarray(simplex_lattice(n, 9 if n <= 4 else 4))
    points = [
        rng.dirichlet(np.ones(n), size=300),
        np.where(rng.random((300, n)) < 0.3, 0.0, rng.dirichlet(np.full(n, 0.5), size=300)),
        lattice,
        np.asarray(simplex_lattice(n, 1)),
    ]
    on_lattice = lattice[rng.integers(len(lattice))]
    return points, [rng.dirichlet(np.ones(n)), on_lattice]


@pytest.mark.parametrize("n", range(1, 8))
def test_quadratic_value_many_equals_einsum_bit_for_bit(n):
    rng = np.random.default_rng(100 + n)
    points, baselines = kernel_cases(n, rng)
    a = rng.normal(size=(n, n))
    psd = a @ a.T
    for q in (psd, np.round(psd, 1), np.round(psd + n * np.eye(n), 1)):
        for q0 in baselines:
            c = QuadraticCost(tuple(map(tuple, q)), tuple(q0))
            for pts in points:
                got, want = c.value_many(pts), einsum_quadratic_cost(pts, c.Q, c.q0)
                if n == 2 and len(pts) <= 2:
                    # einsum adds each j's two terms apart first on inputs this small
                    assert np.allclose(got, want, rtol=1e-13, atol=1e-15)
                else:
                    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [*range(1, 8), 8, 9, 17, 130])
def test_entropy_value_many_equals_matrix_formula_bit_for_bit(n):
    # from 8 states up, sum(axis=1) keeps 8 partial sums per row
    rng = np.random.default_rng(200 + n)
    if n <= 7:
        points, _ = kernel_cases(n, rng)
        lattice = points[2]
    else:
        points = [rng.dirichlet(np.ones(n), size=200)]
        lattice = points[0]
    # a baseline on an interior point of the matrix makes some ratios exactly 1
    interior = lattice[(lattice > 0).all(axis=1)]
    baselines = [rng.dirichlet(np.ones(n)), *interior[:1]]
    for q0 in baselines:
        for theta in (1.0, 0.37):
            c = RelativeEntropyCost(theta, tuple(q0))
            for pts in points:
                want = matrix_entropy_cost(pts, c.theta, c.q0)
                assert c.value_many(pts).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 5, 7, 8, 9, 15, 16, 23, 128, 129, 300])
def test_row_sums_equal_numpy_sum_bit_for_bit(n):
    # numpy's pairwise order changes at 8 and 128 terms; signed zeros count
    rng = np.random.default_rng(n)
    a = rng.normal(size=(400, n)) * rng.choice([1.0, 1e-9, 1e9], size=(400, n))
    a[rng.random((400, n)) < 0.2] = -0.0
    a[:3] = -0.0
    a[3, :] = 0.0
    a[3, -1] = -0.0
    want = a.sum(axis=1)
    assert model._row_sums(np.ascontiguousarray(a.T)).tobytes() == want.tobytes()


def test_quadratic_cost_validation():
    with pytest.raises(ValidationError):
        QuadraticCost(((1.0, 0.5), (0.0, 1.0)), (0.0, 0.0))  # not symmetric
    with pytest.raises(ValidationError):
        QuadraticCost(((1.0, 0.0), (0.0, -1.0)), (0.0, 0.0))  # not PSD
    with pytest.raises(ValidationError):
        QuadraticCost(((1.0, 0.0), (0.0, 1.0)), (0.0, 0.0, 0.0))


def test_entropy_cost_values():
    c = RelativeEntropyCost(1.0, (0.5, 0.5))
    assert c.value(np.array([0.5, 0.5])) == 0.0
    # 0 log 0 = 0, so a point mass is finite
    assert c.value(np.array([1.0, 0.0])) == pytest.approx(math.log(2.0), rel=1e-12)
    c2 = RelativeEntropyCost(2.5, (0.5, 0.5))
    assert c2.value(np.array([1.0, 0.0])) == pytest.approx(2.5 * math.log(2.0), rel=1e-12)
    p = np.array([0.7, 0.3])
    assert np.allclose(c.gradient(p), fd_gradient(c.value, p), atol=1e-7)
    assert np.allclose(c.hessian(p), np.diag(1.0 / p), atol=1e-10)


def test_entropy_cost_boundary_and_validation():
    c = RelativeEntropyCost(1.0, (0.5, 0.5))
    with pytest.raises(InteriorityError):
        c.gradient(np.array([1.0, 0.0]))
    with pytest.raises(InteriorityError):
        c.hessian(np.array([1.0, 0.0]))
    with pytest.raises(ValidationError):
        RelativeEntropyCost(0.0, (0.5, 0.5))
    with pytest.raises(ValidationError):
        RelativeEntropyCost(1.0, (1.0, 0.0))


def test_table_cost_lookup():
    pts = simplex_lattice(2, 2)
    c = TableCost(tuple(map(tuple, pts)), (0.0, 1.0, 4.0))
    assert c.value(np.array([0.5, 0.5])) == 1.0
    assert list(c.value_many(pts)) == [0.0, 1.0, 4.0]
    with pytest.raises(UndefinedCostPointError):
        c.value(np.array([0.25, 0.75]))
    with pytest.raises(DifferentiabilityError):
        c.gradient(np.array([0.5, 0.5]))
    with pytest.raises(DifferentiabilityError, match="^table cost has no hessian$"):
        c.hessian(np.array([0.5, 0.5]))
    with pytest.raises(UndefinedCostPointError, match=r"cost undefined at grid point \(0\.1, 0\.9\)$"):
        c.value_many(np.array([[0.0, 1.0], [0.1, 0.9]]))


def _lookup_kinds():
    pts = simplex_lattice(3, 6)
    values = tuple(float(v) for v in np.arange(len(pts)) / 7.0)
    # a repeated distribution keeps its first cost
    dists = (*map(tuple, pts), tuple(pts[2]))
    effort = EffortCost(tuple(range(len(dists))), dists, (*values, 99.0))
    return [(TableCost(tuple(map(tuple, pts)), values), pts, values,
             "cost undefined at grid point"),
            (effort, pts, values, "cost undefined off the induced-effort grid")]


@pytest.mark.parametrize("case", [0, 1], ids=["table", "effort"])
def test_lookup_costs_build_one_table_per_call(case, monkeypatch):
    c, pts, values, text = _lookup_kinds()[case]
    kind = type(c)
    calls = []
    build = kind._lookup

    def counted(self):
        calls.append(1)
        return build(self)

    monkeypatch.setattr(kind, "_lookup", counted)
    assert list(c.value_many(pts)) == list(values)
    assert len(calls) == 1
    assert [c.value(p) for p in pts] == list(values)
    assert len(calls) == 1 + len(pts)
    off = np.array([0.1, 0.2, 0.7])
    for price in (c.value, lambda p: c.value_many(p[None, :])):
        with pytest.raises(UndefinedCostPointError, match=text):
            price(off)


def test_effort_cost_points():
    c = EffortCost(
        efforts=(0.0, 1.0, 2.0),
        distributions=((0.9, 0.1), (0.5, 0.5), (0.1, 0.9)),
        costs=(0.0, 0.2, 0.9),
    )
    assert c.value(np.array([0.5, 0.5])) == 0.2
    with pytest.raises(UndefinedCostPointError):
        c.value(np.array([0.3, 0.7]))
    pts = c.enumerable_points()
    assert pts.shape == (3, 2)
    # sorted by coordinates, not by effort
    assert pts[0][0] == 0.1 and pts[-1][0] == 0.9


# -- utilities --------------------------------------------------------------


def test_utility_normalization_and_shapes():
    for u in (AgentUtility("risk_neutral"), AgentUtility("cara", a=2.0), AgentUtility("crra", gamma=2.0)):
        assert float(np.asarray(u.apply(np.array([0.0])))[0]) == pytest.approx(0.0, abs=1e-15)
    x = np.array([0.5, 1.0])
    cara = AgentUtility("cara", a=2.0)
    assert np.allclose(cara.apply(x), (1.0 - np.exp(-2.0 * x)) / 2.0)
    log_u = AgentUtility("crra", gamma=1.0)
    assert float(log_u.apply(np.array([1.0]))[0]) == pytest.approx(math.log(2.0), rel=1e-12)
    lin = AgentUtility("crra", gamma=0.0)
    assert np.allclose(lin.apply(x), x)


@pytest.mark.parametrize("kind,params,name", [
    ("risk_neutral", {"a": 2.0}, "a"),
    ("risk_neutral", {"gamma": 0.0}, "gamma"),
    ("risk_neutral", {"shift": 1.0}, "shift"),
    ("cara", {"a": 2.0, "gamma": 1.0}, "gamma"),
    ("cara", {"a": 2.0, "shift": 1.0}, "shift"),
    ("crra", {"gamma": 2.0, "a": 2.0}, "a"),
])
def test_utility_refuses_params_its_kind_does_not_take(kind, params, name):
    # such a utility would behave as its kind and still compare unequal
    with pytest.raises(ValidationError, match=f"^{kind} utility takes no {name}$"):
        AgentUtility(kind, **params)


def test_utility_derivative_matches_fd():
    for u in (AgentUtility("cara", a=1.5), AgentUtility("crra", gamma=0.7, shift=2.0)):
        for x0 in (0.0, 0.4, 1.3):
            fd = (u.apply(np.array([x0 + 1e-6])) - u.apply(np.array([x0 - 1e-6]))) / 2e-6
            assert float(u.derivative(np.array([x0]))[0]) == pytest.approx(float(fd[0]), abs=1e-8)


def test_utility_domain_and_validation():
    with pytest.raises(ValidationError):
        AgentUtility("cara", a=0.0)
    with pytest.raises(ValidationError):
        AgentUtility("crra", gamma=-1.0)
    with pytest.raises(ValidationError):
        AgentUtility("exotic")
    with pytest.raises(ValidationError, match="^unknown utility kind: 'exotic'$"):
        AgentUtility("exotic", a=1.0)
    crra = AgentUtility("crra", gamma=2.0, shift=0.5)
    with pytest.raises(ValidationError):
        crra.apply(np.array([-0.5]))
    assert crra.domain_violation(np.array([-0.6])) is not None
    assert crra.domain_violation(np.array([0.0])) is None
    with pytest.raises(ValidationError, match=r"^CRRA utility evaluated outside its domain \(x \+ shift <= 0\)$"):
        AgentUtility("crra", gamma=2.0).derivative(np.array([-2.0]))


# -- families ---------------------------------------------------------------


def test_grid_values_expansion():
    assert grid_values([0.0, 0.5]) == (0.0, 0.5)
    assert grid_values({"min": 0.0, "max": 1.0, "step": 0.25}) == (0.0, 0.25, 0.5, 0.75, 1.0)
    with pytest.raises(ValidationError):
        grid_values({"min": 0.0, "max": 1.0})
    with pytest.raises(ValidationError):
        grid_values({"min": 0.0, "max": 1.0, "step": 0.0})
    with pytest.raises(ValidationError):
        grid_values([])
    for spec in (
        {"min": 0.0, "max": math.inf, "step": 0.1},
        {"min": -math.inf, "max": 1.0, "step": 0.1},
        {"min": 0.0, "max": 1.0, "step": math.nan},
        {"min": 0.0, "max": 1.0, "step": math.inf},
    ):
        with pytest.raises(ValidationError, match="grid spec bounds and step must be finite"):
            grid_values(spec)
    # finite bounds and step, but (max - min) / step overflows
    for spec in ({"min": 0.0, "max": 1.0, "step": 1e-320}, {"min": -1e308, "max": 1e308, "step": 1.0}):
        with pytest.raises(ValidationError, match="grid spec step is too small"):
            grid_values(spec)


def test_grid_family_enumeration_order():
    fam = GridFamily(((0.0, 1.0), (0.0, 2.0)))
    y = np.array([0.0, 1.0])
    labels, payments = fam.payment_matrix(y)
    assert list(labels) == ["b=(0,0)", "b=(0,2)", "b=(1,0)", "b=(1,2)"]
    assert payments.tolist() == [[0.0, 0.0], [0.0, 2.0], [1.0, 0.0], [1.0, 2.0]]


def test_linear_share_family():
    fam = LinearShareFamily((0.0, 0.5), (-0.1, 0.0))
    labels, payments = fam.payment_matrix(np.array([0.0, 2.0]))
    assert labels[0] == "beta=0,w=-0.1"
    assert payments[3].tolist() == [0.0, 1.0]
    with pytest.raises(ValidationError):
        LinearShareFamily((1.5,), (0.0,))


def test_debt_and_live_or_die_families():
    y = np.array([0.0, 1.0, 2.0])
    labels, payments = DebtFamily((0.5,)).payment_matrix(y)
    assert labels == ["F=0.5"]
    assert payments[0].tolist() == [0.0, 0.5, 1.5]
    with pytest.raises(ValidationError):
        DebtFamily((-0.5,))
    labels, payments = LiveOrDieFamily((1.0,)).payment_matrix(y)
    assert payments[0].tolist() == [0.0, 1.0, 2.0]
    labels, payments = LiveOrDieFamily((1.5,)).payment_matrix(y)
    assert payments[0].tolist() == [0.0, 0.0, 2.0]


def test_monotone_family_filters_members():
    y = np.array([0.0, 1.0])
    fam = MonotoneBoundedSlopeFamily(((0.0, 0.5), (0.0, 0.5, 2.0)))
    kept = fam.payment_matrix(y)[1].tolist()
    # decreasing pairs and slopes above 1 are dropped
    assert [0.5, 0.0] not in kept
    assert [0.0, 2.0] not in kept
    assert [0.0, 0.5] in kept and [0.5, 0.5] in kept
    assert MonotoneBoundedSlopeFamily.admits(np.array([0.1, 0.9]), y)
    assert not MonotoneBoundedSlopeFamily.admits(np.array([0.0, 1.1]), y)


def test_monotone_family_is_a_filtered_grid_family():
    grids = ((0.0, 0.5, 1.0), (0.0, 0.5, 2.0), (0.25, 1.0, 1.5))
    y = np.array([0.0, 1.0, 1.5])
    grid = GridFamily(grids)
    mono = MonotoneBoundedSlopeFamily(grids)
    g_labels, g_payments = grid.payment_matrix(y)
    keep = np.array([MonotoneBoundedSlopeFamily.admits(b, y) for b in g_payments])
    labels, payments = mono.payment_matrix(y)
    assert 0 < len(labels) < len(g_labels)
    assert list(labels) == [lab for lab, k in zip(g_labels, keep) if k]
    assert np.array_equal(payments, g_payments[keep])
    # the same params, under different kinds
    s = Scenario(states=StateSpace(("L", "M", "H")), y=OutputFunction(tuple(y)),
                 cost=QuadraticCost(np.eye(3), (1 / 3, 1 / 3, 1 / 3)), capacity=0.1, family=grid,
                 utility=AgentUtility(), reservation=0.0, m=4)
    g_section = scenario_to_dict(s)["contract_family"]
    m_section = scenario_to_dict(dataclasses.replace(s, family=mono))["contract_family"]
    assert (g_section["kind"], m_section["kind"]) == ("grid", "monotone-bounded-slope")
    assert m_section["params"] == g_section["params"] == {"values": [list(g) for g in grids]}
    assert mono != grid
    with pytest.raises(ValidationError, match="^monotone family needs a nonempty grid per state$"):
        MonotoneBoundedSlopeFamily(((0.0,), ()))
    with pytest.raises(ValidationError, match="^grid family needs a nonempty grid per state$"):
        GridFamily(((0.0,), ()))
    with pytest.raises(ValidationError, match="^monotone family arity must match the state count$"):
        mono.payment_matrix(y[:2])
    with pytest.raises(ValidationError, match="^grid family arity must match the state count$"):
        grid.payment_matrix(y[:2])
    uni = MonotoneBoundedSlopeFamily.uniform(2, 0.0, 1.0, 0.5)
    assert type(uni) is MonotoneBoundedSlopeFamily and uni.kind == "monotone-bounded-slope"
    assert uni.grids == ((0.0, 0.5, 1.0), (0.0, 0.5, 1.0))
    assert type(GridFamily.uniform(2, 0.0, 1.0, 0.5)) is GridFamily


def grid_reference(grids, y, monotone):
    """Labels and payments from one itertools.product loop; the monotone
    filter reads each contract in increasing-output order."""
    order = sorted(range(len(y)), key=lambda i: y[i])
    labels, rows = [], []
    for combo in itertools.product(*grids):
        steps = [(combo[j] - combo[i], y[j] - y[i]) for i, j in zip(order, order[1:])]
        if not monotone or all(-1e-12 <= db <= dy + 1e-12 for db, dy in steps):
            labels.append("b=(" + ",".join(format(v, "g") for v in combo) + ")")
            rows.append(combo)
    return labels, np.array(rows, dtype=float)


def test_grid_payment_matrices_match_product_reference():
    grids = ((-1.5, -0.0, 0.0, 1e-05), (0.5, -0.0, 1e-05, 1.0), (0.25, 1e20, -2.0))
    y = np.array([1.0, 0.0, 2e20])  # not sorted, so the filter reorders states
    for fam, monotone in ((GridFamily(grids), False), (MonotoneBoundedSlopeFamily(grids), True)):
        labels, payments = fam.payment_matrix(y)
        ref_labels, ref_payments = grid_reference(grids, y, monotone)
        assert list(labels) == ref_labels
        # bytes, so that -0.0 and 0.0 count as different payments
        assert payments.shape == ref_payments.shape
        assert payments.tobytes() == ref_payments.tobytes()
        assert [(lab, b.tobytes()) for lab, b in zip(labels, payments)] == [
            (lab, b.tobytes()) for lab, b in zip(ref_labels, ref_payments)
        ]
    rows = GridFamily(grids).payment_matrix(y)[1]
    assert 0 < len(labels) < len(rows)
    assert any("-0," in lab for lab in labels) and any("1e+20" in lab for lab in labels)
    assert any("1e-05" in lab for lab in labels)
    kept = MonotoneBoundedSlopeFamily.admits(rows, y)
    assert kept.tolist() == [bool(MonotoneBoundedSlopeFamily.admits(b, y)) for b in rows]


def test_share_debt_and_live_or_die_match_member_loop_reference():
    values = (-2.5, -0.0, 0.0, 1e-05, 1e20, 0.3)
    y = np.array([1.0, 0.0, -3.0, 1e-05, 1e20, 2.5])  # unsorted, with -0.0 payments
    share = LinearShareFamily((0.0, 1e-05, 0.5, 1.0, -0.0), values)
    cases = (
        (share, [
            (f"beta={b:g},w={w:g}", b * y + w) for b in share.betas for w in share.ws
        ]),
        (DebtFamily((0.0, -0.0, 1e-05, 1e20, 0.3)), [
            (f"F={f:g}", np.maximum(0.0, y - f)) for f in (0.0, -0.0, 1e-05, 1e20, 0.3)
        ]),
        (LiveOrDieFamily(values), [(f"l={v:g}", np.where(y >= v, y, 0.0)) for v in values]),
    )
    for fam, reference in cases:
        labels, payments = fam.payment_matrix(y)
        assert list(labels) == [lab for lab, _ in reference]
        assert payments.shape == (len(reference), y.size) and payments.dtype == float
        # bytes, so that -0.0 and 0.0 count as different payments
        assert payments.tobytes() == np.array([b for _, b in reference]).tobytes()
    labels = share.payment_matrix(y)[0]
    assert "beta=1e-05,w=-2.5" in labels and "beta=-0,w=1e+20" in labels
    assert "beta=0.5,w=-0" in labels


def eager_labels(fam, y):
    """Every member's label built up front, one string per member, as the
    families built them before labels were rendered on demand."""
    if isinstance(fam, GridFamily):
        texts = [[format(v, "g") for v in g] for g in fam.grids]
        labels = ["b=(" + ",".join(combo) + ")" for combo in itertools.product(*texts)]
        if isinstance(fam, MonotoneBoundedSlopeFamily):
            axes = np.meshgrid(*fam.grids, indexing="ij", copy=False)
            payments = np.stack(axes, axis=-1).reshape(len(labels), len(fam.grids))
            labels = list(itertools.compress(labels, fam.admits(payments, y)))
        return labels
    if isinstance(fam, LinearShareFamily):
        beta_texts = ["beta=" + format(beta, "g") for beta in fam.betas]
        w_texts = [",w=" + format(w, "g") for w in fam.ws]
        return [bt + wt for bt in beta_texts for wt in w_texts]
    if isinstance(fam, DebtFamily):
        return ["F=" + format(f, "g") for f in fam.faces]
    return ["l=" + format(v, "g") for v in fam.thresholds]


def test_label_of_every_id_is_the_eager_label():
    values = (-2.5, -0.0, 0.0, 1e-05, 1e20, 0.3, 1 / 3)
    y = np.array([1.0, 0.0, 2.5])
    grids = (values, (0.5, -0.0, 1e-05, 1.0, 2.0), (0.25, 1e20, -2.0, 1.5))
    families = (
        GridFamily(grids),
        GridFamily(((7.0,), (8.0,), (9.0,))),
        MonotoneBoundedSlopeFamily(grids),
        MonotoneBoundedSlopeFamily.uniform(3, 0.0, 1.0, 0.125),
        LinearShareFamily((0.0, 1e-05, 0.5, 1.0, -0.0), values),
        DebtFamily((0.0, -0.0, 1e-05, 1e20, 0.3)),
        LiveOrDieFamily(values),
    )
    for fam in families:
        labels, payments = fam.payment_matrix(y)
        want = eager_labels(fam, y)
        assert len(labels) == len(want) == len(payments) > 0
        assert [labels[i] for i in range(len(labels))] == want
        # numpy ids and negative ids index as list positions do
        ids = np.arange(-len(want), len(want))
        assert [labels[i] for i in ids] == [want[i] for i in ids.tolist()]
        for bad in (len(want), -len(want) - 1):
            with pytest.raises(IndexError):
                labels[bad]
    # the monotone filter keeps some members and drops others
    assert 0 < len(families[2].payment_matrix(y)[0]) < len(families[0].payment_matrix(y)[0])


def test_grid_payment_matrix_builds_no_label():
    fam = GridFamily.uniform(4, 0.0, 2.0, 0.05)
    y = np.array([0.0, 1.0, 2.0, 3.0])
    tracemalloc.start()
    try:
        labels, payments = fam.payment_matrix(y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(labels) == len(payments) == 41**4
    # the matrix is 90 MB and checking it needs a temporary mask of an
    # eighth of that; one string per member would add over 200 MB
    assert peak <= payments.nbytes + payments.nbytes // 4
    assert labels[0] == "b=(0,0,0,0)" and labels[-1] == "b=(2,2,2,2)"
    assert labels[41**3 + 2] == "b=(0.05,0,0,0.1)"


def test_validate_scenario_empty_family_reports_once():
    s = tangent_scenario(0.04)
    # payments fall as output rises, so the monotone filter keeps no row
    empty = MonotoneBoundedSlopeFamily(((1.0,), (0.0,)))
    with pytest.raises(ValidationError, match=r"^contract family: contract family enumeration is empty$"):
        validate_scenario(
            Scenario(
                states=s.states, y=s.y, cost=s.cost, capacity=s.capacity,
                family=empty, utility=s.utility, reservation=0.0, m=s.m,
            )
        )


def test_every_family_shares_the_base_payment_matrix():
    # the benchmark's tracer wraps ContractFamily.payment_matrix, so no
    # family may override it
    y = np.array([0.0, 1.0])
    families = (
        GridFamily(((0.0, 1.0), (0.0,))),
        MonotoneBoundedSlopeFamily(((0.0, 1.0), (0.0, 1.0))),
        LinearShareFamily((0.5,), (0.0,)),
        DebtFamily((0.5,)),
        LiveOrDieFamily((0.5,)),
    )
    for fam in families:
        assert type(fam).payment_matrix is ContractFamily.payment_matrix
        labels, payments = fam.payment_matrix(y)
        assert payments.shape == (len(labels), 2) and payments.dtype == float


# -- lattice ----------------------------------------------------------------


def test_simplex_lattice_small():
    pts = simplex_lattice(2, 4)
    assert pts.shape == (5, 2)
    assert pts[:, 0].tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    with pytest.raises(ValidationError):
        simplex_lattice(0, 4)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 4), m=st.integers(1, 10))
def test_simplex_lattice_counts_and_sums(n, m):
    pts = simplex_lattice(n, m)
    assert pts.shape[0] == math.comb(m + n - 1, n - 1)
    assert np.abs(pts.sum(axis=1) - 1.0).max() <= 1e-12
    assert len({tuple(r) for r in np.round(pts * m).astype(int)}) == pts.shape[0]


def lattice_reference(n, m):
    """Lexicographic compositions of m into n parts, divided by m; the last
    part is fixed by the others, so only n - 1 of them are enumerated."""
    heads = itertools.product(range(m + 1), repeat=n - 1)
    return np.array([(*h, m - sum(h)) for h in heads if sum(h) <= m], dtype=float) / m


def test_simplex_lattice_matches_product_reference():
    shapes = [(n, m) for n in range(1, 5) for m in range(1, 21)]
    shapes += [(5, m) for m in range(1, 13)] + [(3, 400)]
    for n, m in shapes:
        pts, ref = simplex_lattice(n, m), lattice_reference(n, m)
        assert pts.shape == ref.shape and pts.dtype == ref.dtype
        assert pts.tobytes() == ref.tobytes(), (n, m)
        assert not pts.flags.writeable
        with pytest.raises(ValueError):
            pts[0, 0] = 0.0
    # the benchmark empties and reads the cache between operations
    model._lattice_cached.cache_clear()
    simplex_lattice(2, 4)
    simplex_lattice(2, 4)
    info = model._lattice_cached.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_at_capacity_shares_the_lattice():
    s = tangent_scenario(0.04, m=40)
    sk = s.at_capacity(0.09)
    assert sk == dataclasses.replace(s, capacity=0.09)
    assert sk.lattice is s.lattice
    # nothing is priced until a scenario asks for it
    assert not {"points", "costs", "contracts", "util"} & vars(s.lattice).keys()
    assert sk.lattice.costs is s.lattice.costs


def test_enumeration_points_prefers_intrinsic_grid():
    s = tangent_scenario(0.04, m=10)
    assert s.lattice.points.shape[0] == 11
    eff = EffortCost((0.0, 1.0), ((1.0, 0.0), (0.5, 0.5)), (0.0, 0.3))
    s2 = Scenario(
        states=s.states, y=s.y, cost=eff, capacity=1.0, family=s.family,
        utility=s.utility, reservation=0.0, m=10,
    )
    assert s2.lattice.points.shape[0] == 2


def lattice_scenario(cost, n, m):
    """A scenario of ``cost`` on the n-state lattice of grid m, for reading
    its ``PricedLattice``."""
    return Scenario(
        states=StateSpace(tuple(f"s{i}" for i in range(n))), y=OutputFunction(tuple(range(n))), cost=cost,
        capacity=1.0, family=DebtFamily((0.0,)), utility=AgentUtility("risk_neutral"), reservation=0.0, m=m,
    )


def test_at_gathers_the_coordinates_simplex_lattice_holds():
    for n, m in ((2, 7), (3, 10), (5, 6), (2, 255), (3, 256)):
        lattice = lattice_scenario(RelativeEntropyCost(1.0, (1.0 / n,) * n), n, m).lattice
        pts = simplex_lattice(n, m)
        ids = np.random.default_rng(m).integers(0, len(pts), 20)
        assert lattice.at(ids).tobytes() == pts[ids].tobytes(), (n, m)
        assert lattice.at(slice(None)).tobytes() == pts.tobytes(), (n, m)
        assert "points" not in vars(lattice)
    # an effort cost's points are its listed distributions
    eff = EffortCost((0.0, 1.0), ((1.0, 0.0), (0.5, 0.5)), (0.0, 0.3))
    lattice = lattice_scenario(eff, 2, 10).lattice
    assert lattice.at(np.array([1, 0])).tolist() == [[1.0, 0.0], [0.5, 0.5]]


def random_lattice_cost(kind, n, rng):
    """A random cost of ``kind``: a dense or diagonal Q, or relative entropy."""
    q0 = rng.dirichlet(np.ones(n))
    if kind == "entropy":
        return RelativeEntropyCost(float(rng.uniform(0.1, 2.0)), tuple(q0))
    if kind == "dense":
        a = rng.normal(size=(n, n))
        Q = a @ a.T
        Q = (Q + Q.T) / 2
    else:
        Q = np.diag(rng.uniform(0.0, 2.0, n))
    return QuadraticCost(tuple(map(tuple, Q)), tuple(q0))


@pytest.mark.parametrize("kind", ["dense", "diagonal", "entropy"])
@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 5), m=st.integers(1, 12), block=st.integers(1, 40), seed=st.integers(0, 2**16))
def test_blocked_pricing_equals_one_call(kind, n, m, block, seed):
    # blocks of ``block`` coordinates hold block // n rows (at least one),
    # which need not divide the lattice: the last block is short
    cost = random_lattice_cost(kind, n, np.random.default_rng(seed))
    want = cost.value_many(simplex_lattice(n, m))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_PRICE_BLOCK", block)
        got = lattice_scenario(cost, n, m).lattice.costs
    assert got.tobytes() == want.tobytes()


def test_blocked_pricing_builds_a_lookup_table_once():
    pts = simplex_lattice(3, 30)
    table = TableCost(tuple(map(tuple, pts)), tuple(float(v) for v in np.arange(len(pts)) / 7.0))
    calls = []
    build = TableCost._lookup

    def counted(self):
        calls.append(1)
        return build(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TableCost, "_lookup", counted)
        mp.setattr(model, "_PRICE_BLOCK", 30)
        costs = lattice_scenario(table, 3, 30).lattice.costs
    assert costs.tolist() == list(table.values) and calls == [1]


def test_pricing_holds_no_whole_lattice_float_array():
    """Pricing the n = 5, m = 40 relative-entropy lattice (135751 points)
    holds the costs, 1.09 MB, and one block's arrays: under 2.09 MB traced.
    One (n, L) float array of the whole lattice is 5.43 MB."""
    n, m = 5, 40
    s = lattice_scenario(RelativeEntropyCost(0.5, (1.0 / n,) * n), n, m)
    model._lattice_cached(n, m)  # the counts, shared and cached, are built apart
    tracemalloc.start()
    try:
        costs = s.lattice.costs
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert costs.nbytes == 1_086_008
    assert peak <= costs.nbytes + 1e6


# -- evaluation helpers -----------------------------------------------------


def test_scenario_evaluation_helpers():
    s = tangent_scenario(0.04)
    p = (0.8, 0.2)
    assert cost(s, p) == pytest.approx(0.04, abs=1e-15)


# -- validation -------------------------------------------------------------


def test_validate_scenario_passes_on_fixtures():
    assert validate_scenario(tangent_scenario(0.04)) is None


def test_validate_scenario_reports_failures():
    s = tangent_scenario(0.04)
    bad = Scenario(
        states=s.states, y=OutputFunction((0.0, 1.0, 2.0)), cost=s.cost,
        capacity=s.capacity, family=s.family, utility=s.utility,
        reservation=0.0, m=s.m,
    )
    with pytest.raises(ValidationError, match="output length must equal the state count"):
        validate_scenario(bad)


def test_validate_scenario_empty_feasible_set():
    s = tangent_scenario(0.04)
    with pytest.raises(ValidationError, match="capacity -1: feasible distribution set empty"):
        validate_scenario(
            Scenario(
                states=s.states, y=s.y, cost=s.cost, capacity=-1.0,
                family=s.family, utility=s.utility, reservation=0.0, m=s.m,
            )
        )


def test_validate_scenario_table_coverage():
    table = TableCost(((1.0, 0.0), (0.0, 1.0)), (0.0, 1.0))
    s = tangent_scenario(0.04)
    with pytest.raises(ValidationError, match="cost undefined at grid point"):
        validate_scenario(
            Scenario(
                states=s.states, y=s.y, cost=table, capacity=1.0,
                family=s.family, utility=s.utility, reservation=0.0, m=4,
            )
        )


@pytest.mark.parametrize("family", [
    GridFamily(((0.0, 0.5, math.inf), (0.0, 0.5, math.inf))),
    LinearShareFamily((0.0, 0.5), (0.0, math.inf)),
    LinearShareFamily((math.nan,), (0.0,)),
])
def test_validate_scenario_nonfinite_payments(family):
    s = tangent_scenario(0.04)
    with pytest.raises(ValidationError, match=r"^contract family: contract payments must be finite$"):
        validate_scenario(
            Scenario(
                states=s.states, y=s.y, cost=s.cost, capacity=s.capacity,
                family=family, utility=s.utility, reservation=0.0, m=s.m,
            )
        )


def test_validate_scenario_crra_domain():
    s = tangent_scenario(0.04)
    with pytest.raises(ValidationError, match="contract payments outside the CRRA utility domain"):
        validate_scenario(
            Scenario(
                states=s.states, y=s.y, cost=s.cost, capacity=s.capacity,
                family=GridFamily(((-2.0,), (0.0,))),
                utility=AgentUtility("crra", gamma=2.0),
                reservation=0.0, m=s.m,
            )
        )
