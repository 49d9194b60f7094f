"""Risk measures on the aggregate distribution: VaR by a safeguarded Newton
iteration on the log survival function, and TVaR and conditional upper tail
moments as one log-space sum of positive terms.

Level convention: value_at_risk(model, level) returns the x with
F(x) = level, i.e. level is the probability of NOT exceeding the returned
threshold; every level a double holds in (0, 1) is accepted.

n is the model's total shape; every risk measure sums the orders below it,
so at a fractional one the model's row raises UnsupportedModelError.

VaR works in the unit coordinate u = c x of the law's scale c (mixing), where
S(x) = S_1(u) and the law's row reads no scale: the law alone applies c, to take
a threshold to u (_unit) and a quantile or tail moment back (from_unit).  It
brackets its root on a geometric grid of u from 2^-40 to
2^40, 16 points per octave (1281 points, 2^(1/16) apart), and only for a
quantile outside it on grids a factor 2 apart, on to 2^996 or from 2^-1074
(past either end, TailUnderflowError).  A grid's table is log S_1 and its
log-log slope -u f_1 / S_1 at every point, from one density=True
log_survival call of the row, and the negated running minimum of log S_1,
on which one searchsorted finds the first point at or below the target (log
S_1 itself rises by an ulp here and there where S_1 rounds to 1); the near
grid's reads neither the level nor the scale, so it is built once per unit
law and total shape and kept (_near_table: 3 x 1281 doubles or 30.7 kB a
table, at most _VAR_TABLES = 102 of them in a budget of 3 MB), and a warm
report makes no call for its bracket.  Newton starts from the root of the
cubic Hermite interpolant of (log u, log S_1) with the table's slopes
between the bracketing points: a few Newton steps on the cubic from the
linear fraction (_start), or that
fraction itself where a slope is not finite or the cubic does not decrease.
On the near grid's narrow bracket that start is close enough for one Newton
step to land within 1e-14 of the root, so a warm report at levels 0.9 to
0.999 makes two survival calls, the second of which confirms the first.  The
safeguarded Newton iteration runs in t = log u on g = log S - log(1 -
level), dg/dt = -u f_1 / S (S' = -f), bisecting whenever a step leaves the
bracket.  Each step takes the survival terms and u f_1 at u together from the
law's row, and log S_1 from the row's own reduction of those terms
(log_survival_sum), clamped at 0 as the table's is.
Below level 0.5 it iterates on g = log F - log(level) instead, with F = 1 - S
from the same survival call and dg/dt = u f_1 / F: there log S is strongly
concave in log u and a first Newton step on it overshoots.  It stops once the
bracket is within rtol = 1e-12 of u, or the Newton step from u is (so u is
about that close to the root): within 1e-14 of u from the median up, within
rtol below it, where F = 1 - S carries the rounding of S, eps S / F relative.
Both are relative at every scale, and it returns x = u / c (from_unit) at the
point of its last survival evaluation (TailUnderflowError where that leaves the
positive doubles), so a law and its unit law take the same steps.  Each step
takes log u as numpy's log, as the unit coordinate does (mixing's _unit), so
that tail_moment at VaR repeats the report's digits.

Tail moments.  The law's row gives log E(S_1^r 1{S_1 > u}), u = c a, from the
survival terms at u, one log-space reduction; its ratio to S(a) is divided
by c^r (the law's from_unit, in log space where the unit law's moment leaves
the doubles, as at c = 1e300, a = 1e10).  Both logs round by |log S(a)| eps,
so below log S(a) = -4096 the moment is refused (TailUnderflowError); a
moment that over- or underflows a double is PrecisionError.  risk_report
takes from VaR's last evaluation the row, the unit point u with its log, log S_1(u)
and the survival terms whose log-sum that is, so a warm report makes two one-point
Newton row calls and one tail-moment call, and takes log u only in the VaR loop.  The
terms are the row's: only the row reduces them, once per step, and takes them back
for the tail moments; nothing here reads their number.  At a step's one point the
rows and specfun take numbers where a (1,) array held one value: the same operations
on the same values, without the array scaffolding that cost more than their
arithmetic.  E(S^r | S > a) is
finite where E(Theta^-r) is: both ask the law's existence rule
(require_neg_moment) before they evaluate anything.  Before that, an order
that is not a whole number >= 1, or a threshold that is nan, infinite or
negative, is a ValueError.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import exp, inf, isfinite, log, log1p, sqrt

import numpy as np

from .aggregate import AggregateModel, moment
from .errors import PrecisionError, RiskmixError, TailUnderflowError

__all__ = ["RiskReport", "value_at_risk", "tail_moment", "tvar", "risk_report"]

# the bracketing grids: the near one 2^(1/16) apart from 2^-40 to 2^40, the far and the
# low one a factor 2 apart, sharing its ends
_NEAR_PER_OCTAVE = 16
_VAR_NEAR = 2.0 ** (np.arange(-40 * _NEAR_PER_OCTAVE, 40 * _NEAR_PER_OCTAVE + 1)
                    / _NEAR_PER_OCTAVE)
_VAR_FAR, _VAR_LOW = (2.0 ** np.arange(*ends) for ends in ((40, 997), (-1074, -39)))
# the grids' steps in log u
_NEAR_STEP, _LOG2 = log(2.0) / _NEAR_PER_OCTAVE, log(2.0)
_VAR_RTOL, _VAR_STEP, _VAR_MAXITER = 1e-12, 1e-14, 100
# the near grid's tables kept (_near_table), three arrays of its 1281 points each (30.7
# kB): a budget of 3 MB holds 102 of them
_VAR_TABLE_BYTES = 3 << 20
_VAR_TABLES = _VAR_TABLE_BYTES // (3 * _VAR_NEAR.nbytes)
# Newton steps on the cubic of _start
_START_STEPS = 4
# a tail moment is exp(log E(S^r 1{S > a}) - log S(a)), whose logs round by |log S| eps
# each: below this floor that is more than VaR's relative tolerance
_TAIL_LOG_FLOOR = -4096.0


def _grid_table(row, grid):
    """(log S_1, d log S_1 / d log u = -u f_1 / S_1, -(running minimum of log S_1)) on a
    grid of u, from one row call; the slope is not finite where S_1 or u f_1 is not a
    positive double."""
    log_s, log_uf = row.log_survival(grid, np.log(grid), density=True)
    with np.errstate(over="ignore", invalid="ignore"):
        return log_s, -np.exp(log_uf - log_s), -np.minimum.accumulate(log_s)


@lru_cache(maxsize=_VAR_TABLES)
def _near_table(unit_law, n):
    """_grid_table on the near grid, read-only, for every law of that unit law
    (mixing.MixingDistribution._unit_law) and total shape n: it reads neither the
    level nor the scale."""
    table = _grid_table(unit_law.sum_row(n), _VAR_NEAR)
    for values in table:
        values.flags.writeable = False
    return table


def _start(log_s, slopes, log_target, step) -> float:
    """The fraction of the grid step (in log u), from the point of log S_1 = log_s[0] >
    log_target >= log_s[1], at which the cubic Hermite interpolant of (log u,
    log S_1) with the slopes d log S_1 / d log u meets log_target: a few Newton
    steps on the cubic from the linear fraction, kept within [0, 1].  Where a
    slope is not finite or the cubic is not decreasing, the linear fraction; where
    log S_1 falls to -inf, 1/2."""
    (y0, y1), (m0, m1) = log_s, slopes
    drop = y0 - y1
    if not isfinite(drop):
        return 0.5
    frac = (y0 - log_target) / drop
    # p(s) = y0 + m0 s + c2 s^2 + c3 s^3 on s in [0, 1], its slopes scaled to the step
    m0, m1 = m0 * step, m1 * step
    c2, c3 = -3.0 * drop - 2.0 * m0 - m1, 2.0 * drop + m0 + m1
    # p' = m0 + 2 c2 s + 3 c3 s^2 is m0 and m1 at the ends; where it has a maximum
    # inside, at -c2 / (3 c3), that is m0 - c2^2 / (3 c3)
    if not (-inf < m0 < 0.0 and -inf < m1 < 0.0):
        return frac
    if 3.0 * c3 < -c2 < 0.0 and m0 - c2 * c2 / (3.0 * c3) >= 0.0:
        return frac
    s = frac
    for _ in range(_START_STEPS):
        g = y0 - log_target + s * (m0 + s * (c2 + s * c3))
        s = min(max(s - g / (m0 + s * (2.0 * c2 + 3.0 * s * c3)), 0.0), 1.0)
    return s


def _exp(v: float) -> float:
    """numpy's exp of a float, inf where it overflows (past 709.78): np.errstate is
    entered only near there."""
    if v < 709.0:
        return float(np.exp(v))
    with np.errstate(over="ignore"):
        return float(np.exp(v))


def _value_at_risk(model: AggregateModel, level: float):
    """VaR, the model's row, and at the last evaluation (at VaR) the unit point u with
    its log, log S_1(u) and the survival terms (the row's log_survival_terms, a 1-D
    array) from which the row reduced it."""
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie strictly between 0 and 1")
    row = model.mixing.sum_row(model.total_shape)
    log_target = log1p(-level)
    grid, step = _VAR_NEAR, _NEAR_STEP
    log_grid, slopes, drop = _near_table(model.mixing._unit_law, model.total_shape)
    # the first point at or below the target: the first whose running minimum is
    j = int(drop.searchsorted(-log_target))
    if not 0 < j < grid.size:
        # the quantile lies below or beyond it
        grid, step = (_VAR_FAR if j else _VAR_LOW), _LOG2
        log_grid, slopes, drop = _grid_table(row, grid)
        j = int(drop.searchsorted(-log_target))
    if j == grid.size:
        raise TailUnderflowError("VaR bracket expansion ran away")
    if not j:
        raise TailUnderflowError("the quantile lies below the smallest positive double")
    # (the steps in Python floats, whose arithmetic and powers are those of numpy's
    # float64 scalars, bit for bit)
    lo, hi = grid[j - 1:j + 1].tolist()
    u = lo * (hi / lo) ** _start(log_grid[j - 1:j + 1].tolist(),
                                 slopes[j - 1:j + 1].tolist(), log_target, step)
    # P is the smaller tail: S from the median up, F = 1 - S below it; F holds S's
    # absolute rounding, eps S / F relative, so there the steps stop at rtol
    lower = level < 0.5
    sign, log_p_target, step_tol = ((-1.0, log(level), _VAR_RTOL) if lower
                                    else (1.0, log_target, _VAR_STEP))
    for _ in range(_VAR_MAXITER):
        # Newton in t = log u: h = +-(log P - log P*) > 0 below the root, dh/dt = -u f_1 / P
        # log u as the unit coordinate takes it (mixing's _unit), so that a tail moment at
        # VaR gives the report's digits
        point = np.array([u])
        log_u = np.log(point)
        terms, log_uf = row.log_survival_terms(point, log_u, density=True)
        terms = terms[:, 0]
        log_s = row.log_survival_sum(terms)
        s = exp(log_s)
        p = 1.0 - s if lower else s
        h = sign * ((log(p) if p > 0.0 else -inf) - log_p_target)
        if h == 0.0:
            break
        if h > 0.0:
            lo = u
        else:
            hi = u
        if hi - lo <= _VAR_RTOL * hi:
            break
        slope = exp(log_uf[0]) / p if p > 0.0 else 0.0
        new = u * exp(min(h / slope, 700.0)) if slope > 0.0 else 0.0
        if not (lo <= new <= hi and new > 0.0):
            # the geometric mean, whose product lo hi may underflow
            new = sqrt(lo * hi) or sqrt(lo) * sqrt(hi)
        if abs(new - u) <= step_tol * new:
            break
        u = new
    else:
        raise RiskmixError(f"VaR iteration did not converge in {_VAR_MAXITER} steps")
    x = model.mixing.from_unit(u, log(u))
    if not x:
        raise TailUnderflowError("the quantile lies below the smallest positive double")
    if x == inf:
        raise TailUnderflowError("the quantile lies past the largest double")
    return x, row, (u, log_u.item(), log_s, terms)


def value_at_risk(model: AggregateModel, level: float) -> float:
    """Quantile of S_n: the unique x with survival(x) = 1 - level."""
    return _value_at_risk(model, level)[0]


def _tail_moments(law, row, a: float, point, orders) -> dict:
    """{r: E(S^r | S > a)} for a > 0, from the law's row and the point of a:
    the unit point u, log u, log S_1(u) and the survival terms there;
    TailUnderflowError where log S(a) lies below _TAIL_LOG_FLOOR, PrecisionError where a
    moment is nan or leaves the doubles."""
    u, log_u, log_surv, terms = point
    if not log_surv >= _TAIL_LOG_FLOOR:
        raise TailUnderflowError(f"log survival({a}) = {log_surv:.6g} lies below "
                                 f"{_TAIL_LOG_FLOOR}, where the tail moment loses its digits")
    # the unit law's moment may leave the doubles where the answer does not: the law's
    # from_unit takes its log too
    log_moments = row.log_tail_moments(u, log_u, orders, terms) - log_surv
    moments = {r: law.from_unit(_exp(v), v, r) for r, v in zip(orders, log_moments.tolist())}
    for m in moments.values():
        if not 0.0 < m < inf:
            how = {inf: "overflows a double", 0.0: "underflows a double"}.get(m, "is nan")
            raise PrecisionError(f"a tail moment at {a} {how}")
    return moments


def _whole_orders(orders) -> tuple:
    """The tail-moment orders as ints: ValueError unless each is a whole number >= 1."""
    try:
        ints = tuple(map(int, orders))
    except (ValueError, OverflowError):  # (nan, inf)
        ints = None
    if ints != tuple(orders) or min(ints, default=1) < 1:
        raise ValueError(f"tail-moment orders must be whole numbers >= 1, got {orders!r}")
    return ints


def tail_moment(model: AggregateModel, r: int, a: float) -> float:
    """Conditional upper tail moment E(S_n^r | S_n > a); a = 0 gives E(S_n^r)."""
    (r,) = _whole_orders((r,))
    if not 0.0 <= a < inf:
        raise ValueError(f"the threshold must be finite and nonnegative, got {a!r}")
    if a == 0.0:
        return moment(model, r)
    law = model.mixing
    law.require_neg_moment(r)
    row, (u, log_u) = law.sum_row(model.total_shape), law._unit(float(a))
    terms = row.log_survival_terms(u, log_u)
    return _tail_moments(law, row, a, (u, log_u, row.log_survival_sum(terms), terms), (r,))[r]


def tvar(model: AggregateModel, level: float) -> float:
    """Tail value at risk: E(S_n | S_n > VaR(level))."""
    return risk_report(model, level, orders=(1,)).tvar


@dataclass(frozen=True)
class RiskReport:
    level: float
    var: float
    tvar: float
    tail_moments: tuple  # of (order, value)


def risk_report(model: AggregateModel, level: float, orders=(1, 2)) -> RiskReport:
    """VaR/TVaR bundle with tail moments of the requested orders.

    Every moment the report needs must exist (the law's require_neg_moment, before
    the VaR search).  The tail moments are one sum of the VaR search's row at its
    last unit point, given its survival terms there.
    """
    orders = _whole_orders(orders)
    needed = tuple(dict.fromkeys((1, *orders)))
    model.mixing.require_neg_moment(max(needed))
    a, row, point = _value_at_risk(model, level)
    tail = _tail_moments(model.mixing, row, a, point, needed)
    return RiskReport(level=level, var=a, tvar=tail[1],
                      tail_moments=tuple((r, tail[r]) for r in orders))
