"""Tail approximations for sums of classical Pareto claims mixed over a
frailty: the generic Laplace-of-log form

    f(x) ~ -d/dx L[log(x / beta^m)] = -L'(log(x/beta^m)) / x,

which holds for every frailty law.  beta is the Pareto precision parameter
and m the index of the smallest conditional shape.  tail_pdf_generic takes a
scalar or an array of x and makes one Laplace-derivative call for all of
them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .mixing import MixingDistribution

__all__ = ["ParetoTailSpec", "tail_pdf_generic"]


@dataclass(frozen=True)
class ParetoTailSpec:
    beta: float
    m: int
    mixing: MixingDistribution

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("precision parameter must be positive")
        if self.m < 1:
            raise ValueError("index m must be >= 1")


def _log_arg(spec: ParetoTailSpec, x: np.ndarray) -> np.ndarray:
    """s = log(x / beta^m) on an array x; a ValueError unless every s > 0.
    The message gives m log beta, since beta^m itself may overflow."""
    log_floor = spec.m * math.log(spec.beta)
    with np.errstate(divide="ignore", invalid="ignore"):  # x <= 0 fails the check
        s = np.log(x) - log_floor
    if not np.all(s > 0):
        raise ValueError(f"x must exceed beta^m (m log beta = {log_floor!r})")
    return s


def tail_pdf_generic(spec: ParetoTailSpec, x):
    """Chain-rule evaluation -L'(log(x/beta^m))/x via the exact derivative, on
    a scalar (a float) or an array of x."""
    x_arr = np.asarray(x, dtype=float)
    out = -spec.mixing.laplace_derivative(1, _log_arg(spec, x_arr)) / x_arr
    return float(out) if out.ndim == 0 else out
