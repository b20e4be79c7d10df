"""Domain types and evaluation primitives.

Holds the problem data (states, output, cost, capacity, contract family,
utility, reservation), the cost-function and utility kinds, the contract
family enumerations, the lattice and its pricing, and scenario validation.
Everything downstream consumes these types. The lattice order is said here
once: a point is a composition of m into n parts, held as its counts, in
the lexicographic order ``_expand`` and ``_rank_step`` state, which the
builder, the ranks, the nearest point and the one-step moves all follow.

Conventions used throughout the package:
  * distributions are dense length-n probability vectors,
  * utility comparisons use the scenario's absolute tolerance ``tol_u``
    (default 1e-9),
  * feasibility of the capacity constraint is tested as
    ``c(p) <= k + 1e-12`` so that boundary points whose cost equals the
    capacity algebraically do not drop out through rounding.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, partial

import numpy as np

from .errors import (
    ConfigurationError,
    DifferentiabilityError,
    InteriorityError,
    UndefinedCostPointError,
    ValidationError,
)

# Slack added to the capacity side of feasibility tests; absorbs the ulp-scale
# error of computing a cost that is algebraically exactly k.
FEASIBILITY_SLACK = 1e-12

DEFAULT_TOL_U = 1e-9

# the default width of the threshold bisection (``scaling.alpha_star``)
DEFAULT_EPS_ALPHA = 1e-4

_POINT_KEY_SCALE = 1e12


def _astuple(values) -> tuple[float, ...]:
    return tuple(float(v) for v in np.asarray(values, dtype=float).ravel())


def _key(p) -> tuple[int, ...]:
    """Quantized lookup key for exact-within-1e-12 point matching."""
    return tuple(int(round(float(x) * _POINT_KEY_SCALE)) for x in p)


def _check_finite(what: str, *rows) -> None:
    """Raise ValidationError unless every number of every row is finite."""
    if not all(math.isfinite(v) for row in rows for v in row):
        raise ValidationError(f"{what} must be finite")


def check_payments(payments) -> None:
    """``Contract``'s invariant over one payment vector or the rows of a
    matrix: every payment finite. Raises ValidationError."""
    if not np.isfinite(payments).all():
        raise ValidationError("contract payments must be finite")


def check_probabilities(probs) -> None:
    """``Distribution``'s invariants over one probability vector or the rows
    of a matrix: each row nonempty and summing to 1 within 1e-12, no entry
    below -1e-12. Raises ValidationError. Both comparisons are written so
    that a NaN fails them, and a row sum of inf - inf is a NaN, not a warning."""
    probs = np.atleast_2d(probs)
    with np.errstate(invalid="ignore"):
        if probs.shape[-1] == 0 or not (np.abs(probs.sum(axis=-1) - 1.0) <= 1e-12).all():
            raise ValidationError("probabilities must sum to 1 within 1e-12")
    if not (probs >= -1e-12).all():
        raise ValidationError("probabilities must be nonnegative")


# ---------------------------------------------------------------------------
# Core value types


@dataclass(frozen=True)
class StateSpace:
    """Finite ordered set of states."""

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))
        if len(self.labels) < 2:
            raise ValidationError("state space needs at least 2 states")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("state labels must be distinct")

    @property
    def n(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class OutputFunction:
    """Per-state monetary output y."""

    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", _astuple(self.values))
        _check_finite("output values", self.values)

    def as_array(self) -> np.ndarray:
        return np.array(self.values, dtype=float)


@dataclass(frozen=True)
class Contract:
    """Per-state payment b to the agent."""

    payments: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "payments", _astuple(self.payments))
        check_payments(self.payments)

    def as_array(self) -> np.ndarray:
        return np.array(self.payments, dtype=float)


@dataclass(frozen=True)
class Distribution:
    """Probability vector over states; entries sum to 1 within 1e-12."""

    probs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "probs", _astuple(self.probs))
        check_probabilities(self.probs)

    def as_array(self) -> np.ndarray:
        return np.array(self.probs, dtype=float)


def _as_payments(b) -> np.ndarray:
    if isinstance(b, Contract):
        return b.as_array()
    return np.asarray(b, dtype=float)


def _as_probs(p) -> np.ndarray:
    if isinstance(p, Distribution):
        return p.as_array()
    return np.asarray(p, dtype=float)


# ---------------------------------------------------------------------------
# Cost functions


def _fold(ufunc: np.ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(a, axis=1)``, the same operations in the same order,
    worked one column at a time. numpy reduces a short second axis one row
    at a time, so on the tall, narrow arrays of the scan the column loop is
    far faster: on 20000 x 5 on a 2-core x86 VM, 49 us against 1065 us for
    ``a.max(axis=1)``."""
    out = a[:, 0].copy()
    for col in a.T[1:]:
        ufunc(out, col, out=out)
    return out


def _row_sums(columns: np.ndarray) -> np.ndarray:
    """``columns.T.sum(axis=1)`` bit for bit, signed zeros included, added
    one whole row of ``columns`` at a time. numpy adds each of a matrix's
    rows to a zero by pairwise summation (``_pairwise``); repeating those
    additions column-wise avoids reducing millions of short rows."""
    total = _pairwise(columns)
    total += 0.0
    return total


def _pairwise(columns: np.ndarray) -> np.ndarray:
    """numpy's pairwise sum over the rows of ``columns``: left to right
    below 8 terms, 8 interleaved partial sums up to 128, halves on a
    multiple of 8 above."""
    n = len(columns)
    if n < 8:
        return _fold(np.add, columns.T)
    if n <= 128:
        part = columns[:8].copy()
        for i in range(8, n - n % 8, 8):
            part += columns[i:i + 8]
        total = ((part[0] + part[1]) + (part[2] + part[3])) + ((part[4] + part[5]) + (part[6] + part[7]))
        for col in columns[n - n % 8:]:
            total += col
        return total
    half = n // 2 - n // 2 % 8
    return _pairwise(columns[:half]) + _pairwise(columns[half:])


class CostFunction:
    """Base for the cost kinds.

    Every kind provides ``value_many(points)``, c at each row of a point
    matrix (the lattice kernel), and ``scaled(factor)``, the same kind of
    cost times a positive factor; where meaningful it also overrides
    ``gradient`` and ``hessian``. ``value``, ``gradient`` and ``hessian``
    take a (..., n) stack of points and answer per point, one point being a
    stack of one. ``convex_smooth`` marks the kinds eligible for the
    interior solver.
    """

    kind: str = ""
    convex_smooth: bool = False

    def value(self, p: np.ndarray):
        """c at each point of the stack p, a number for one point: the
        rows of ``value_many``, unless a kind prices points its own way."""
        p = np.asarray(p, dtype=float)
        return self.value_many(p.reshape(-1, p.shape[-1])).reshape(p.shape[:-1])[()]

    def block_pricer(self):
        """A function pricing one block of points after another as
        ``value_many`` does, for ``PricedLattice.costs``."""
        return self.value_many

    def gradient(self, p: np.ndarray) -> np.ndarray:
        raise DifferentiabilityError(f"{self.kind} cost has no gradient")

    def hessian(self, p: np.ndarray) -> np.ndarray:
        raise DifferentiabilityError(f"{self.kind} cost has no hessian")

    def enumerable_points(self) -> np.ndarray | None:
        """Intrinsic point grid for non-lattice kinds, else None."""
        return None


@dataclass(frozen=True)
class QuadraticCost(CostFunction):
    """c(p) = (p - q0)' Q (p - q0) with Q symmetric PSD."""

    Q: tuple[tuple[float, ...], ...]
    q0: tuple[float, ...]
    kind: str = field(default="quadratic", init=False)
    convex_smooth: bool = field(default=True, init=False)

    def __post_init__(self):
        q = np.asarray(self.Q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValidationError("Q must be a square matrix")
        object.__setattr__(self, "Q", tuple(map(tuple, q.tolist())))
        object.__setattr__(self, "q0", _astuple(self.q0))
        if len(self.q0) != q.shape[0]:
            raise ValidationError("q0 length must match Q")
        _check_finite("quadratic cost Q and q0", self.q0, *self.Q)
        if not np.allclose(q, q.T, atol=1e-12):
            raise ValidationError("Q must be symmetric")
        if np.linalg.eigvalsh(q).min() < -1e-10:
            raise ValidationError("Q must be positive semidefinite")

    def _q(self) -> np.ndarray:
        return np.array(self.Q, dtype=float)

    def _q0(self) -> np.ndarray:
        return np.array(self.q0, dtype=float)

    def value(self, p: np.ndarray):
        """d' Q d at each point, d = p - q0: one vector-matrix and one dot
        product per point, the explicit singleton axes keeping each
        product's bits those of the 1-D ``d @ Q @ d``."""
        d = np.asarray(p, dtype=float) - self._q0()
        return (d[..., None, :] @ self._q() @ d[..., :, None])[..., 0, 0]

    def value_many(self, points: np.ndarray) -> np.ndarray:
        """c at each row of ``points``. The terms are einsum's
        ``"ij,jk,ik->i"`` terms ``(d_j Q_jk) d_k``, added to a zero with j
        outer and k inner as einsum adds them, so the bits are einsum's; each
        term is one pass over a contiguous column of d through one buffer.
        (On at most 8 products, n = 2 with at most two points, einsum adds
        each j's terms apart first, and the last bit may differ.)"""
        d = np.subtract(np.transpose(points), self._q0()[:, None], order="C")
        out = np.zeros(d.shape[1])
        term = np.empty_like(out)
        for j, row in enumerate(self.Q):
            for k, q in enumerate(row):
                np.multiply(d[j], q, out=term)
                term *= d[k]
                out += term
        return out

    def gradient(self, p: np.ndarray) -> np.ndarray:
        d = np.asarray(p, dtype=float) - self._q0()
        return (2.0 * self._q() @ d[..., :, None])[..., 0]

    def hessian(self, p: np.ndarray) -> np.ndarray:
        shape = np.shape(p)
        return np.multiply(2.0, self._q(), out=np.empty(shape + shape[-1:]))

    def scaled(self, factor: float) -> "QuadraticCost":
        return QuadraticCost(tuple(tuple(factor * v for v in row) for row in self.Q), self.q0)


@dataclass(frozen=True)
class RelativeEntropyCost(CostFunction):
    """c(p) = theta * sum p log(p / q0), with 0 log 0 = 0."""

    theta: float
    q0: tuple[float, ...]
    kind: str = field(default="relative-entropy", init=False)
    convex_smooth: bool = field(default=True, init=False)

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "q0", _astuple(self.q0))
        if not 0 < self.theta < math.inf:
            raise ValidationError("entropy scale theta must be positive and finite")
        q = np.array(self.q0)
        if not ((q > 0).all() and abs(q.sum() - 1.0) <= 1e-9):
            raise ValidationError("entropy baseline q0 must be an interior distribution")

    def _q0(self) -> np.ndarray:
        return np.array(self.q0, dtype=float)

    def value_many(self, points: np.ndarray) -> np.ndarray:
        """c at each row of ``points``: the terms ``p_j log(p_j / q0_j)``,
        0 where ``p_j <= 0``, computed in one (n, L) array, one contiguous
        row per state, and summed per point by ``_row_sums`` in the order
        ``sum(axis=1)`` uses, so the bits are those of the 2-D formula."""
        cols = np.transpose(points)
        terms = np.divide(cols, self._q0()[:, None], order="C")
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log(terms, out=terms)
            terms *= cols
        np.copyto(terms, 0.0, where=~(cols > 0.0))
        total = _row_sums(terms)
        total *= self.theta
        return total

    def gradient(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if (p <= 0).any():
            raise InteriorityError("entropy gradient needs a strictly interior p")
        return self.theta * (np.log(p / self._q0()) + 1.0)

    def hessian(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if (p <= 0).any():
            raise InteriorityError("entropy hessian needs a strictly interior p")
        out = np.zeros(p.shape + p.shape[-1:])
        diag = np.arange(p.shape[-1])
        out[..., diag, diag] = self.theta / p
        return out

    def scaled(self, factor: float) -> "RelativeEntropyCost":
        return RelativeEntropyCost(factor * self.theta, self.q0)


class _LookupCost(CostFunction):
    """Base for the kinds defined only at the points of their ``_lookup``
    table, matched by ``_key``. ``value_many`` builds the table once per
    call, and ``block_pricer`` once for all its blocks. ``_undefined`` is
    the error text for any other point, formatted with that point rounded."""

    def value_many(self, points: np.ndarray) -> np.ndarray:
        return self._priced(points, self._lookup())

    def block_pricer(self):
        """``value_many`` with one table built for every block."""
        return partial(self._priced, table=self._lookup())

    def _priced(self, points: np.ndarray, table: dict) -> np.ndarray:
        out = np.empty(len(points))
        for i, row in enumerate(points):
            try:
                out[i] = table[_key(row)]
            except KeyError:
                text = self._undefined.format(_astuple(np.round(row, 6)))
                raise UndefinedCostPointError(text) from None
        return out


@dataclass(frozen=True)
class TableCost(_LookupCost):
    """Explicit cost per listed point; undefined elsewhere.

    Points are matched exactly up to 1e-12 per coordinate. The table is
    expected to cover the scenario's simplex lattice (validation enforces
    this), so enumeration still runs on the lattice.
    """

    points: tuple[tuple[float, ...], ...]
    values: tuple[float, ...]
    kind: str = field(default="table", init=False)
    _undefined = "cost undefined at grid point {}"

    def __post_init__(self):
        pts = tuple(_astuple(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", _astuple(self.values))
        if len(self.points) != len(self.values):
            raise ValidationError("table points and values must align")
        if not self.points:
            raise ValidationError("table cost needs at least one point")
        _check_finite("table cost points and values", self.values, *self.points)

    def _lookup(self) -> dict:
        return {_key(p): v for p, v in zip(self.points, self.values)}

    def scaled(self, factor: float) -> "TableCost":
        return TableCost(self.points, tuple(factor * v for v in self.values))


@dataclass(frozen=True)
class EffortCost(_LookupCost):
    """Scalar effort grid mapped to induced distributions and costs.

    The cost is defined exactly at the induced distributions; enumeration
    runs over those points instead of the simplex lattice.
    """

    efforts: tuple[float, ...]
    distributions: tuple[tuple[float, ...], ...]
    costs: tuple[float, ...]
    kind: str = field(default="effort", init=False)
    _undefined = "cost undefined off the induced-effort grid"

    def __post_init__(self):
        object.__setattr__(self, "efforts", _astuple(self.efforts))
        object.__setattr__(self, "distributions", tuple(_astuple(d) for d in self.distributions))
        object.__setattr__(self, "costs", _astuple(self.costs))
        if not (len(self.efforts) == len(self.distributions) == len(self.costs)):
            raise ValidationError("effort grid, distributions, and costs must align")
        if not self.efforts:
            raise ValidationError("effort cost needs at least one effort level")
        if len({len(d) for d in self.distributions}) != 1:
            raise ValidationError("effort distributions must all have the same length")
        _check_finite("effort levels, distributions and costs", self.efforts, self.costs, *self.distributions)
        for d in self.distributions:
            check_probabilities(d)

    def _lookup(self) -> dict:
        # first occurrence wins when two efforts induce the same distribution
        table: dict = {}
        for d, c in zip(self.distributions, self.costs):
            table.setdefault(_key(d), c)
        return table

    def enumerable_points(self) -> np.ndarray:
        seen: dict = {}
        for d in self.distributions:
            seen.setdefault(_key(d), d)
        pts = sorted(seen.values())
        return np.array(pts, dtype=float)

    def scaled(self, factor: float) -> "EffortCost":
        return EffortCost(self.efforts, self.distributions, tuple(factor * v for v in self.costs))


# ---------------------------------------------------------------------------
# Utility


@dataclass(frozen=True)
class AgentUtility:
    """Bernoulli utility. Kinds: risk_neutral, cara, crra.

    Normalizations: u(0) = 0 for every kind. CARA is (1 - exp(-a x)) / a,
    CRRA is ((x + s)^(1-g) - s^(1-g)) / (1-g) on x + s > 0, with the log form
    at g = 1; g = 0 reduces to risk neutrality.
    """

    kind: str = "risk_neutral"
    a: float | None = None
    gamma: float | None = None
    shift: float | None = None

    def __post_init__(self):
        takes = {"risk_neutral": (), "cara": ("a",), "crra": ("gamma", "shift")}.get(self.kind)
        if takes is None:
            raise ValidationError(f"unknown utility kind: {self.kind!r}")
        for name in ("a", "gamma", "shift"):
            if name not in takes and getattr(self, name) is not None:
                raise ValidationError(f"{self.kind} utility takes no {name}")
        if self.kind == "cara":
            if self.a is None or not 0 < float(self.a) < math.inf:
                raise ValidationError("CARA coefficient a must be positive and finite")
            object.__setattr__(self, "a", float(self.a))
        elif self.kind == "crra":
            if self.gamma is None or not 0 <= float(self.gamma) < math.inf:
                raise ValidationError("CRRA coefficient gamma must be nonnegative and finite")
            shift = 1.0 if self.shift is None else float(self.shift)
            if not 0 < shift < math.inf:
                raise ValidationError("CRRA domain shift must be positive and finite")
            object.__setattr__(self, "gamma", float(self.gamma))
            object.__setattr__(self, "shift", shift)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Vectorized u(x). Risk-neutral returns the input array unchanged."""
        if self.kind == "risk_neutral":
            return x
        x = np.asarray(x, dtype=float)
        if self.kind == "cara":
            return (1.0 - np.exp(-self.a * x)) / self.a
        g, s = self.gamma, self.shift
        if self.outside_domain(x).any():
            raise ValidationError("CRRA utility evaluated outside its domain (x + shift <= 0)")
        if g == 1.0:
            return np.log((x + s) / s)
        return ((x + s) ** (1.0 - g) - s ** (1.0 - g)) / (1.0 - g)

    def derivative(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "risk_neutral":
            return np.ones_like(x)
        if self.kind == "cara":
            return np.exp(-self.a * x)
        if self.outside_domain(x).any():
            raise ValidationError("CRRA utility evaluated outside its domain (x + shift <= 0)")
        return (x + self.shift) ** (-self.gamma)

    def outside_domain(self, x: np.ndarray) -> np.ndarray:
        """Elementwise: x + shift <= 0 for CRRA, nowhere for the others."""
        x = np.asarray(x, dtype=float)
        if self.kind != "crra":
            return np.zeros(x.shape, dtype=bool)
        return x + self.shift <= 0

    def domain_violation(self, payments: np.ndarray) -> str | None:
        if self.outside_domain(payments).any():
            return "contract payments outside the CRRA utility domain"
        return None


# ---------------------------------------------------------------------------
# Contract families


def grid_values(spec) -> tuple[float, ...]:
    """Expand a gridded parameter: an explicit list, or {min, max, step}."""
    if isinstance(spec, dict):
        try:
            lo, hi, step = float(spec["min"]), float(spec["max"]), float(spec["step"])
        except KeyError as exc:
            raise ValidationError(f"grid spec missing key {exc}") from None
        if not all(math.isfinite(v) for v in (lo, hi, step)):
            raise ValidationError("grid spec bounds and step must be finite")
        if step <= 0 or hi < lo:
            raise ValidationError("grid spec needs step > 0 and max >= min")
        span = (hi - lo) / step + 1e-9
        if not math.isfinite(span):
            raise ValidationError("grid spec step is too small for its range")
        count = int(math.floor(span)) + 1
        return tuple(float(lo + i * step) for i in range(count))
    values = _astuple(spec)
    if not values:
        raise ValidationError("empty parameter grid")
    return values


class ProductLabels(Sequence):
    """The labels of a product family as a function of the member id.

    Member i of the product of the ``axes`` (one list of value texts per
    axis) is labelled ``prefix + sep.join(texts) + suffix``, its texts read
    off i in mixed radix with the last axis fastest, the order
    ``itertools.product`` gives. ``ids``, when given, lists the product
    indices of the members kept, so member i is product member ``ids[i]``.
    No label is built before it is read.
    """

    def __init__(self, axes, prefix: str, sep: str, suffix: str, ids: np.ndarray | None = None):
        self.axes, self.prefix, self.sep, self.suffix, self.ids = axes, prefix, sep, suffix, ids
        self._size = math.prod(map(len, axes)) if ids is None else len(ids)

    def kept(self, ids: np.ndarray) -> ProductLabels:
        """The labels of the product members ``ids`` only, in that order."""
        return ProductLabels(self.axes, self.prefix, self.sep, self.suffix, ids)

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, i) -> str:
        i = operator.index(i)
        if i < 0:
            i += self._size
        if not 0 <= i < self._size:
            raise IndexError("contract id out of range")
        if self.ids is not None:
            i = int(self.ids[i])
        texts = []
        for axis in reversed(self.axes):
            i, digit = divmod(i, len(axis))
            texts.append(axis[digit])
        return self.prefix + self.sep.join(reversed(texts)) + self.suffix


class ContractFamily:
    """Base for the finite contract families.

    Every family provides ``_rows(y)``: each member's label and payment
    row, in lexicographic order, for ``payment_matrix`` to check."""

    kind: str = ""

    def payment_matrix(self, y: np.ndarray) -> tuple[Sequence[str], np.ndarray]:
        """Member labels, a sized sequence indexed by member id, and the
        (members x states) payment matrix. A product family renders a label
        only when it is read (``ProductLabels``)."""
        labels, rows = self._rows(y)
        if not labels:
            raise ConfigurationError("contract family enumeration is empty")
        check_payments(rows)
        return labels, rows


@dataclass(frozen=True)
class GridFamily(ContractFamily):
    """Cartesian product of per-state payment value grids."""

    grids: tuple[tuple[float, ...], ...]
    kind: str = field(default="grid", init=False)
    _name = "grid family"  # subject of the error texts

    def __post_init__(self):
        object.__setattr__(self, "grids", tuple(tuple(float(v) for v in g) for g in self.grids))
        if not self.grids or any(len(g) == 0 for g in self.grids):
            raise ValidationError(f"{self._name} needs a nonempty grid per state")

    @classmethod
    def uniform(cls, n_states: int, b_min: float, b_max: float, step: float) -> "GridFamily":
        g = grid_values({"min": b_min, "max": b_max, "step": step})
        return cls(tuple(g for _ in range(n_states)))

    def _rows(self, y: np.ndarray) -> tuple[ProductLabels, np.ndarray]:
        if len(self.grids) != len(y):
            raise ValidationError(f"{self._name} arity must match the state count")
        labels = ProductLabels([[format(v, "g") for v in g] for g in self.grids], "b=(", ",", ")")
        axes = np.meshgrid(*self.grids, indexing="ij", copy=False)
        return labels, np.stack(axes, axis=-1).reshape(len(labels), len(self.grids))


@dataclass(frozen=True)
class LinearShareFamily(ContractFamily):
    """b = beta * y + w over gridded beta in [0, 1] and gridded w."""

    betas: tuple[float, ...]
    ws: tuple[float, ...]
    kind: str = field(default="linear-share", init=False)

    def __post_init__(self):
        object.__setattr__(self, "betas", _astuple(self.betas))
        object.__setattr__(self, "ws", _astuple(self.ws))
        if not self.betas or not self.ws:
            raise ValidationError("linear-share family needs beta and w grids")
        if min(self.betas) < 0 or max(self.betas) > 1:
            raise ValidationError("linear-share slopes must lie in [0, 1]")

    def _rows(self, y: np.ndarray) -> tuple[ProductLabels, np.ndarray]:
        texts = [[format(v, "g") for v in self.betas], [format(v, "g") for v in self.ws]]
        labels = ProductLabels(texts, "beta=", ",w=", "")
        betas, ws = np.array(self.betas), np.array(self.ws)
        payments = betas[:, None, None] * y + ws[None, :, None]
        return labels, payments.reshape(len(labels), len(y))


@dataclass(frozen=True)
class DebtFamily(ContractFamily):
    """Agent is residual claimant above a gridded face value F >= 0."""

    faces: tuple[float, ...]
    kind: str = field(default="debt", init=False)

    def __post_init__(self):
        object.__setattr__(self, "faces", _astuple(self.faces))
        if not self.faces:
            raise ValidationError("debt family needs a face-value grid")
        if min(self.faces) < 0:
            raise ValidationError("debt face values must be nonnegative")

    def _rows(self, y: np.ndarray) -> tuple[list[str], np.ndarray]:
        labels = ["F=" + format(f, "g") for f in self.faces]
        return labels, np.maximum(0.0, y - np.array(self.faces)[:, None])


@dataclass(frozen=True)
class LiveOrDieFamily(ContractFamily):
    """b = 0 below a gridded threshold l, b = y at or above it."""

    thresholds: tuple[float, ...]
    kind: str = field(default="live-or-die", init=False)

    def __post_init__(self):
        object.__setattr__(self, "thresholds", _astuple(self.thresholds))
        if not self.thresholds:
            raise ValidationError("live-or-die family needs a threshold grid")

    def _rows(self, y: np.ndarray) -> tuple[list[str], np.ndarray]:
        labels = ["l=" + format(l, "g") for l in self.thresholds]
        return labels, np.where(y >= np.array(self.thresholds)[:, None], y, 0.0)


@dataclass(frozen=True)
class MonotoneBoundedSlopeFamily(GridFamily):
    """Grid contracts that are nondecreasing in output with slope at most one.

    Enumerates the per-state grid and keeps contracts whose payments, read in
    increasing-output order, never decrease and never rise faster than output.
    """

    kind: str = field(default="monotone-bounded-slope", init=False)
    _name = "monotone family"

    @staticmethod
    def admits(b: np.ndarray, y: np.ndarray) -> np.ndarray | np.bool_:
        """Whether the payments ``b`` (a vector, or one contract per row)
        never decrease and never rise faster than output; a bool per row."""
        order = np.argsort(y, kind="stable")
        bo, yo = np.asarray(b, dtype=float)[..., order], np.asarray(y, dtype=float)[order]
        db, dy = np.diff(bo, axis=-1), np.diff(yo)
        return np.all((db >= -1e-12) & (db <= dy + 1e-12), axis=-1)

    def _rows(self, y: np.ndarray) -> tuple[ProductLabels, np.ndarray]:
        labels, payments = super()._rows(y)
        keep = self.admits(payments, y)
        return labels.kept(np.flatnonzero(keep)), payments[keep]


# ---------------------------------------------------------------------------
# Scenario


@dataclass(frozen=True)
class Scenario:
    """A full problem instance.

    Attributes:
        states: the finite state space.
        y: output function.
        cost: the agent's distribution cost.
        capacity: cap k on the agent's cost.
        family: feasible contract family B.
        utility: the agent's Bernoulli utility.
        reservation: benchmark utility level r used by selections.
        m: simplex lattice resolution for enumeration (coordinates in
            multiples of 1/m).
        tol_u: absolute utility comparison tolerance.
    """

    states: StateSpace
    y: OutputFunction
    cost: CostFunction
    capacity: float
    family: ContractFamily
    utility: AgentUtility
    reservation: float
    m: int
    tol_u: float = DEFAULT_TOL_U

    def __post_init__(self):
        object.__setattr__(self, "capacity", float(self.capacity))
        object.__setattr__(self, "reservation", float(self.reservation))
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "tol_u", float(self.tol_u))

    @property
    def n(self) -> int:
        return self.states.n

    @cached_property
    def lattice(self) -> PricedLattice:
        """The capacity-independent data, built on first use and kept for
        the life of this scenario."""
        return PricedLattice(self)

    def at_capacity(self, k: float) -> Scenario:
        """This scenario with capacity ``k``, sharing this one's lattice.

        The lattice's pieces are still built on first use, by whichever
        scenario asks first, so errors come in the same order as on a fresh
        scenario.
        """
        s = replace(self, capacity=k)
        s.__dict__["lattice"] = self.lattice
        return s


@dataclass(frozen=True)
class Profile:
    """A contract paired with a distribution, with cached payoffs.

    ``contract_id`` and ``point_id`` identify the family member and the
    lattice point (its index in ``Scenario.lattice``, the same at every
    capacity of a sweep) when the profile came out of an enumeration;
    exact set comparisons use those identities.
    """

    contract: Contract
    dist: Distribution
    agent_utility: float
    principal_payoff: float
    capacity_binding: bool
    cost: float = math.nan
    contract_id: int | None = None
    point_id: int | None = None
    contract_label: str = ""


# ---------------------------------------------------------------------------
# Lattice and evaluation helpers


def _expand(lo: np.ndarray | int, width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One coordinate of the lexicographic order: (parent, value) of each
    child, prefix i's taking the values lo[i], ..., lo[i] + width[i] - 1."""
    parent = np.repeat(np.arange(len(width)), width)
    value = np.arange(parent.size)
    value -= np.repeat(np.cumsum(width) - width - lo, width)
    return parent, value


def _rank_step(binom: np.ndarray, left, a, k: int):
    """The rank offset of placing ``a`` of ``left`` units at a coordinate
    with k after it, from ``_binomials``: C(left + k, k) - C(left - a + k, k)."""
    col = binom[:, k]
    return col[left + k] - col[left - a + k]


def _binomials(top: int, k: int) -> np.ndarray:
    """C(x, j) for 0 <= x <= top and 0 <= j <= k, as int64, a column at a
    time: C(x, j) is the sum of C(t, j - 1) over t < x. Only sums are
    formed, so no intermediate exceeds the largest entry, C(top, k)."""
    table = np.zeros((top + 1, k + 1), dtype=np.int64)
    table[:, 0] = 1
    for j in range(1, k + 1):
        np.cumsum(table[:-1, j - 1], out=table[1:, j])
    return table


@lru_cache(maxsize=64)
def _lattice_cached(n: int, m: int) -> np.ndarray:
    """The lattice as its counts: the read-only (L, n) compositions of m,
    in the smallest unsigned type holding m, cached per (n, m) and shared by
    every caller. Expanded forward: ``_expand`` splits each prefix's last
    count, the units left, into heads 0..left and the rest."""
    cols = [np.full(1, m, np.min_scalar_type(m))]
    for _ in range(n - 1):
        width = cols[-1] + np.intp(1)
        head = _expand(0, width)[1].astype(cols[0].dtype)
        cols = [np.repeat(c, width) for c in cols]
        cols[-1:] = [head, cols[-1] - head]
    arr = np.column_stack(cols)
    arr.setflags(write=False)
    return arr


def simplex_lattice(n: int, m: int) -> np.ndarray:
    """All distributions with coordinates in multiples of 1/m, in
    lexicographic order: a read-only (L, n) float array, the counts of
    ``_lattice_cached`` divided by m, built anew on each call."""
    if n < 1 or m < 1:
        raise ValidationError("lattice needs n >= 1 and m >= 1")
    arr = np.divide(_lattice_cached(n, m), m)
    arr.setflags(write=False)
    return arr


def _lattice_rank(counts: np.ndarray, m: int, binom: np.ndarray) -> np.ndarray:
    """Index in ``simplex_lattice(n, m)`` of each row of compositions of m:
    the sum of its coordinates' ``_rank_step``s."""
    n = counts.shape[1]
    rank, left = np.zeros(len(counts), dtype=np.int64), m
    for j in range(n - 1):
        rank += _rank_step(binom, left, counts[:, j], n - 1 - j)
        left = left - counts[:, j]
    return rank


def _nearest_counts(p: np.ndarray, m: int) -> np.ndarray:
    """Lattice counts (summing to m) nearest to each row of m p, by largest
    remainder: with x = m p, floor(x) plus one at the m - sum(floor(x))
    coordinates first in a stable ascending sort of the keys floor(x) - x.
    A coordinate's place in that sort is the number before it with a key at
    most its own and after it with a smaller key. A key is NaN only where x
    is NaN or infinite, and then so is the row's sum: no place counts."""
    x = np.multiply(np.maximum(p, 0.0).T, m, order="C")
    counts = np.floor(x)
    key = counts - x
    place = np.zeros(x.shape, dtype=np.intp)
    for j in range(1, len(key)):
        for i in range(j):
            ahead = key[i] <= key[j]
            place[j] += ahead
            place[i] += ~ahead
    counts += place < m - sum(counts)
    return counts.T.astype(np.int64, order="C")


def _compositions(counts: np.ndarray, m: int) -> np.ndarray:
    """Which rows of ``counts`` are lattice points: every count nonnegative
    and the row summing to m."""
    return (_fold(np.minimum, counts) >= 0) & (_fold(np.add, counts) == m)


def _neighbours(counts: np.ndarray, m: int, binom: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, rank) of every one-step move from each row of ``counts`` that
    lands on a lattice point: one unit taken from coordinate i and given
    to coordinate j != i, i outer and j inner; rows ascending."""
    n = counts.shape[1]
    eye = np.eye(n, dtype=np.int64)
    moves = np.array([eye[j] - eye[i] for i in range(n) for j in range(n) if i != j])
    probes = (counts[:, None, :] + moves).reshape(-1, n)
    at = np.flatnonzero(_compositions(probes, m))
    return at // len(moves), _lattice_rank(probes[at], m, binom)


def feasible_mask(costs, capacity: float):
    """The feasibility rule c(p) <= k + FEASIBILITY_SLACK, elementwise."""
    return costs <= capacity + FEASIBILITY_SLACK


def feasible_from(costs: np.ndarray, capacities: Sequence[float]) -> np.ndarray:
    """``feasible_mask`` at every one of the ascending ``capacities`` at
    once: for each cost, the index of the first capacity that admits it
    (``len(capacities)`` when none does). A point is feasible at
    capacities[i] exactly when i is at least its index."""
    return np.searchsorted(np.array(capacities, dtype=float) + FEASIBILITY_SLACK, costs, side="left")


# ``PricedLattice.costs``' block: about this many coordinates, so that no
# pricing step holds a whole-lattice float array
_PRICE_BLOCK = 1 << 15


class PricedLattice:
    """The capacity-independent data of a scenario.

    Every enumeration point with its cost, and every family contract with its
    payments and the agent's utility of them. Only the feasible set depends
    on the capacity, so one instance serves every capacity of a sweep, each
    capacity's scenario made by ``Scenario.at_capacity``. Each piece is
    built on first use, so errors come in the order the callers ask for
    them. The lattice keeps the scenario's capacity-independent fields
    rather than the scenario, which holds the lattice.

    The simplex lattice is held as its counts (``_lattice_cached``) and
    never as floats: ``at`` is the one gather of float coordinates, and
    ``costs`` prices the points in blocks of about ``_PRICE_BLOCK``
    coordinates. A point id is a row of the counts, or of the listed
    distributions of the effort cost, the one kind with
    ``enumerable_points``. ``points``, the float coordinates of every point,
    is built only when read, by the tests; no step of the program reads it.
    """

    def __init__(self, s: Scenario):
        self.states, self.y, self.cost = s.states, s.y, s.cost
        self.family, self.utility, self.m = s.family, s.utility, s.m

    @cached_property
    def _listed(self) -> np.ndarray | None:
        return self.cost.enumerable_points()

    @cached_property
    def _counts(self) -> np.ndarray:
        return _lattice_cached(self.states.n, self.m)

    def at(self, ids) -> np.ndarray:
        """The float coordinates of the points ``ids`` (any index of rows):
        their counts divided by m, the division ``simplex_lattice`` makes,
        so every coordinate keeps its bits; or the listed distributions."""
        if self._listed is not None:
            return self._listed[ids]
        return np.divide(self._counts[ids], self.m)

    @cached_property
    def points(self) -> np.ndarray:
        """Every point's float coordinates, for the tests."""
        if self._listed is not None:
            return self._listed
        return simplex_lattice(self.states.n, self.m)

    @cached_property
    def costs(self) -> np.ndarray:
        """c at every point. Every cost kind prices a point from its own row
        alone, so the blocks' bits are those of one call over every point."""
        if self._listed is not None:
            return np.asarray(self.cost.value_many(self._listed), dtype=float)
        size = len(self._counts)
        rows = max(1, _PRICE_BLOCK // self.states.n)
        price = self.cost.block_pricer()
        out = np.empty(size)
        for start in range(0, size, rows):
            out[start:start + rows] = price(self.at(slice(start, start + rows)))
        return out

    @cached_property
    def contracts(self) -> tuple[list[str], np.ndarray]:
        """Member labels and the (members x states) payment matrix."""
        return self.family.payment_matrix(self.y.as_array())

    @cached_property
    def util(self) -> np.ndarray:
        return np.asarray(self.utility.apply(self.contracts[1]), dtype=float)


def cost(s: Scenario, p) -> float:
    """The agent's cost c(p) under the scenario's cost kind."""
    return float(s.cost.value(_as_probs(p)))


def check_alpha(alpha: float) -> float:
    """``alpha`` as a float; raises ConfigurationError unless it lies in
    [0, 1]. NaN and infinities fail the comparison too."""
    if not 0.0 <= alpha <= 1.0:
        raise ConfigurationError("alpha out of [0,1]")
    return float(alpha)


# ---------------------------------------------------------------------------
# Validation


def _cost_dimension(c: CostFunction) -> int:
    if isinstance(c, TableCost):
        return len(c.points[0])
    if isinstance(c, EffortCost):
        return len(c.distributions[0])
    return len(c.q0)


def capacity_failure(k: float) -> str | None:
    """``validate_scenario``'s failure of a capacity that is not finite,
    naming it; None for a finite one. It is the only check a capacity sweep
    repeats above its first capacity: no other check depends on k, and a
    higher k keeps every point feasible at a lower one."""
    return None if math.isfinite(k) else f"capacity {k:g}: capacity must be finite"


def validate_scenario(s: Scenario) -> None:
    """Check structural invariants; raises one ValidationError joining every
    failure with "; ", where a failure that depends on the capacity names it
    ("capacity -1: feasible distribution set empty"). Passing implies the
    feasible distribution set is nonempty on the enumeration grid and the
    family enumeration is nonempty."""
    failures: list[str] = []
    n = s.n
    if len(s.y.values) != n:
        failures.append("output length must equal the state count")
    if (failure := capacity_failure(s.capacity)) is not None:
        failures.append(failure)
    if not math.isfinite(s.reservation):
        failures.append("reservation must be finite")
    if s.m < 1:
        failures.append("simplex grid m must be a positive integer")
    if not 0 < s.tol_u < math.inf:
        failures.append("tol_u must be positive and finite")

    if _cost_dimension(s.cost) != n:
        failures.append("cost dimension must equal the state count")

    if not failures:
        try:
            costs = s.lattice.costs
        except UndefinedCostPointError:
            failures.append("cost undefined at grid point")
        else:
            if not feasible_mask(costs, s.capacity).any():
                failures.append(f"capacity {s.capacity:g}: feasible distribution set empty")

    try:
        _, payments = s.lattice.contracts
    except (ValidationError, ConfigurationError) as exc:
        failures.append(f"contract family: {exc}")
    else:
        violation = s.utility.domain_violation(payments)
        if violation:
            failures.append(violation)
        else:
            # priced here for the enumeration: a CARA or steep CRRA utility may overflow
            try:
                with np.errstate(over="raise"):
                    s.lattice.util
            except FloatingPointError:
                failures.append(f"{s.utility.kind} utility overflows at a contract payment")

    if failures:
        raise ValidationError("; ".join(failures))
