"""Infinite-width level analysis: iteration profiles and convergence order.

The infinite-width firing fraction at level k is the k-fold pointwise
iterate of the mixture activation, so profiles are cheap to compute and
exact to float precision.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, TextIO

import numpy as np

from .catalog import TreeDistribution
from .errors import DegenerateInputError, RangeError, check_int, check_real

LINEAR = "LINEAR"
QUADRATIC = "QUADRATIC"
UNDETERMINED = "UNDETERMINED"

#: Errors outside (ERROR_FLOOR, window) are excluded from order fits.
ERROR_FLOOR = 1e-12

#: Iteration stops once the error is this small.
STOP_ERROR = 1e-15

DEFAULT_CORRIDOR = (0.2, 0.8)

#: ``certified_corridor`` scans each side of t on this many cells, and
#: certifies where the running sup of the end ratio times the distance to
#: the end stays below ``CORRIDOR_FACTOR``.
CORRIDOR_GRID = 512
CORRIDOR_FACTOR = 0.95

#: ``verify_conditions`` sweeps each interval on this many cells.
CONDITION_GRID = 2000


@dataclass(frozen=True)
class ConvergenceProfile:
    """Per-level iterates and distances to the limit for one starting point."""

    p: float
    threshold: float
    limit: float
    iterates: tuple[float, ...]
    errors: tuple[float, ...]
    order: str

    def levels_to(self, target_error: float) -> int | None:
        """First level whose error is <= target_error, if reached."""
        for level, e in enumerate(self.errors):
            if e <= target_error:
                return level
        return None

    def write_csv(self, out: TextIO) -> None:
        out.write("level,iterate,error\n")
        for level, (x, e) in enumerate(zip(self.iterates, self.errors)):
            out.write(f"{level},{x!r},{e!r}\n")


def order_estimate(errors: Sequence[float], upper: float = 0.2) -> str:
    """Classify a decaying error sequence as LINEAR or QUADRATIC.

    Fits the slope of log e_{l+1} against log e_l over consecutive pairs in
    the window (ERROR_FLOOR, upper).  A slope near 1 is geometric decay; slopes
    of 2 and above mean the error is squared (or better) each level, which
    is what buys the log-k level count, so anything from 1.7 up classifies
    as QUADRATIC.  Fewer than 4 usable points: UNDETERMINED.
    """
    usable = [ERROR_FLOOR < e < upper for e in errors]
    if sum(usable) < 4:
        return UNDETERMINED
    xs: list[float] = []
    ys: list[float] = []
    for i in range(len(errors) - 1):
        if usable[i] and usable[i + 1]:
            xs.append(math.log(errors[i]))
            ys.append(math.log(errors[i + 1]))
    if len(xs) < 3:
        return UNDETERMINED
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0.0:
        return UNDETERMINED
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    if 0.8 <= slope <= 1.2:
        return LINEAR
    if slope >= 1.7:
        return QUADRATIC
    return UNDETERMINED


def certified_corridor(f: Callable[[float], float], t: float
                       ) -> tuple[float, float] | None:
    """Measure (u, v) satisfying the quadratic-convergence conditions.

    Finds the largest u with (sup_{(0,u]} f(p)/p^2) * u < CORRIDOR_FACTOR,
    and symmetrically the smallest v for the 1-side.  Returns None when no
    corridor certifies (constructions with a linear term).

    ``f`` is called on Python floats for the endpoint gate and once per
    side on that side's grid, a float64 array; it must work elementwise,
    as ``activation`` and ``TreeDistribution.evaluate`` do.
    """
    t = check_real("threshold t", t, 0, 1)
    # f/p^2 is unbounded near 0 unless f'(0) = 0, which a finite grid
    # cannot see; gate on the endpoint derivatives first.
    if f(1e-9) / 1e-9 > 1e-6 or (1.0 - f(1.0 - 1e-9)) / 1e-9 > 1e-6:
        return None
    steps = np.arange(1, CORRIDOR_GRID)
    lo_ps = t * steps / CORRIDOR_GRID
    hi_ps = t + (1.0 - t) * steps / CORRIDOR_GRID
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0: no certificate
        best_u = _last_certified(lo_ps, f(lo_ps) / (lo_ps * lo_ps), lo_ps)
        hi_ratios = (1.0 - f(hi_ps)) / _square(1.0 - hi_ps)
    best_v = _last_certified(hi_ps[::-1], hi_ratios[::-1], (1.0 - hi_ps)[::-1])
    if best_u is None or best_v is None:
        return None
    return best_u, best_v


def _last_certified(ps: np.ndarray, ratios: np.ndarray, dist: np.ndarray
                    ) -> float | None:
    """The last of ``ps`` where the running sup of ``ratios`` from the
    first point on, floored at 0, times ``dist`` is below CORRIDOR_FACTOR."""
    running = np.maximum.accumulate(np.maximum(ratios, 0.0))
    ok = np.flatnonzero(running * dist < CORRIDOR_FACTOR)
    return float(ps[ok[-1]]) if ok.size else None


def _square(x: np.ndarray) -> np.ndarray:
    """``x ** 2`` elementwise, bit for bit as Python's float ``**`` gives it.

    Both call the C library's ``pow``; ndarray ``** 2`` multiplies instead,
    which differs in the last bit for about one value in a thousand.
    """
    return np.float_power(x, 2)


def profile(dist: TreeDistribution, p: float,
            max_levels: int = 400) -> ConvergenceProfile:
    """Iterate the mixture from ``p`` and record distances to the limit.

    The limit is 0 or 1 by the side of ``dist.unique_threshold()`` that p
    is on.  Stops early once the error drops below 1e-15.  The order fit
    uses the distribution's corridor, a measured certificate, or 0.2/0.8.
    """
    p = check_real("p", p, 0, 1, "[]")
    t = dist.unique_threshold()
    if abs(p - t) <= 1e-12:
        raise DegenerateInputError(
            f"p={p} sits on the interior fixed point {t}; iterates stay put")
    max_levels = check_int("max_levels", max_levels, 1)
    limit = 0.0 if p < t else 1.0
    iterates = [p]
    errors = [abs(p - limit)]
    x = p
    for _ in range(max_levels):
        if errors[-1] < STOP_ERROR:
            break
        x = dist.evaluate(x)
        iterates.append(x)
        errors.append(abs(x - limit))
    corridor = dist.corridor or certified_corridor(dist.evaluate, t) \
        or DEFAULT_CORRIDOR
    window = corridor[0] if limit == 0.0 else 1.0 - corridor[1]
    order = order_estimate(errors, upper=window)
    return ConvergenceProfile(p=p, threshold=t, limit=limit,
                              iterates=tuple(iterates), errors=tuple(errors),
                              order=order)


# ---------------------------------------------------------------------------
# Sufficient-condition certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionFailure:
    condition: str
    interval: tuple[float, float]
    witness: float
    value: float


@dataclass(frozen=True)
class ConditionReport:
    """Measured constants for the linear-divergence / quadratic-convergence
    conditions, with any violations named by interval and witness point."""

    t: float
    u: float
    v: float
    c1: float
    c2: float
    c3: float
    c4: float
    failures: tuple[ConditionFailure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_conditions(dist: TreeDistribution, t: float, u: float, v: float,
                      margin: float = 1e-3) -> ConditionReport:
    """Numerically certify the convergence conditions on grids.

    Requires c1, c2 > 1 on the divergence intervals [u, t-margin] and
    [t+margin, v], c3 with c3*u < 1 on (0, u), and c4 with c4*(1-v) < 1 on
    (v, 1).  Returns the measured constants; failures carry the interval
    and a witness point.
    """
    t, u, v = (check_real(name, x, 0, 1) for name, x in zip("tuv", (t, u, v)))
    margin = check_real("margin", margin, 0)
    if not u < t - margin < t < t + margin < v:
        raise RangeError(f"need u < t - margin < t < t + margin < v, got "
                         f"u={u}, t={t}, v={v}, margin={margin}")
    # The end sweeps divide by squared distances to 0 and 1 on the grid.
    lo_step, hi_step = u / CONDITION_GRID, (1.0 - v) / CONDITION_GRID
    if lo_step * lo_step == 0.0 or 1.0 - hi_step == 1.0:
        raise RangeError(f"u={u} and v={v} are too close to 0 and 1 for a "
                         f"{CONDITION_GRID}-point grid")
    f = dist.evaluate
    failures: list[ConditionFailure] = []

    c1, w1 = _sweep(u, t - margin, lambda p: (t - f(p)) / (t - p), True,
                    CONDITION_GRID)
    if c1 <= 1.0:
        failures.append(ConditionFailure("linear divergence below t",
                                         (u, t - margin), w1, c1))
    c2, w2 = _sweep(t + margin, v, lambda p: (f(p) - t) / (p - t), True,
                    CONDITION_GRID)
    if c2 <= 1.0:
        failures.append(ConditionFailure("linear divergence above t",
                                         (t + margin, v), w2, c2))
    c3, w3 = _sweep(lo_step, u - lo_step, lambda p: f(p) / (p * p), False,
                    CONDITION_GRID)
    if c3 * u >= 1.0:
        failures.append(ConditionFailure("quadratic convergence to 0",
                                         (0.0, u), w3, c3))
    c4, w4 = _sweep(v + hi_step, 1.0 - hi_step,
                    lambda p: (1.0 - f(p)) / _square(1.0 - p), False,
                    CONDITION_GRID)
    if c4 * (1.0 - v) >= 1.0:
        failures.append(ConditionFailure("quadratic convergence to 1",
                                         (v, 1.0), w4, c4))
    return ConditionReport(t=t, u=u, v=v, c1=c1, c2=c2, c3=c3, c4=c4,
                           failures=tuple(failures))


def _sweep(lo: float, hi: float, fn: Callable[[np.ndarray], np.ndarray],
           minimize: bool, grid: int) -> tuple[float, float]:
    """Extreme of ``fn`` over grid + 1 equispaced points of [lo, hi].

    ``fn`` is called once on the whole grid, a float64 array, and must work
    elementwise.  Returns the extreme value and the first grid point that
    attains it, both as Python floats.
    """
    ps = lo + (hi - lo) * np.arange(grid + 1) / grid
    vals = fn(ps)
    i = np.argmin(vals) if minimize else np.argmax(vals)
    return float(vals[i]), float(ps[i])
