"""Drift families, noise schedules, time changes and mean-flow coordinates.

The one-dimensional dynamics studied here are
    dL_t = f(L_t)/t^gamma dt + 1/t^gamma dB_t,   gamma in (1/2, 1],
with f(0) = 0 and f > 0 away from 0.  Two drift families cover the
interesting local behavior at the origin:

    linear    f(x) = k*|x|            (k > 0)
    monomial  f(x) = c*min(|x|,M)^k   (k > 1, capped at M to prevent blow-up)

Time changes make the drift autonomous:
    gamma = 1       t -> e^t,   noise becomes e^{-t/2} dB_t
    gamma in (.5,1) t -> t^{1/(1-gamma)}, noise becomes t^{-gamma/(2(1-gamma))} dB_t

The dichotomy threshold is gamma_tilde(k) = 1/2 + 1/(2k): for gamma at or
below it the process escapes the origin almost surely, strictly above it
converges to the origin with positive probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "DriftSpec",
    "NoiseSchedule",
    "ProcessSpec",
    "MeanFlowFrame",
    "drift_eval",
    "time_change_power",
    "time_change_power_inverse",
    "time_change_exp",
    "time_change_exp_inverse",
    "mean_flow_h",
    "z_coordinate",
    "gamma_threshold",
    "predict_regime",
]

LINEAR = "linear"
MONOMIAL = "monomial"

POWER_GAMMA = "power_gamma"          # g(t) = t^-gamma, raw clock
EXP_HALF = "exp_half"                # g(t) = e^{-t/2}, exponential clock
POWER_TRANSFORMED = "power_transformed"  # g(t) = t^{-gamma/(2(1-gamma))}, power clock

CONTINUOUS_H = "continuous"          # h(t) = -t^{1/(1-k)}
DISCRETE_H = "discrete"              # h(n) = -n^{(1-gamma)/(1-k)}


@dataclass(frozen=True)
class DriftSpec:
    """Drift f for one of the two families; always >= 0 and f(0) = 0.

    The monomial drift is frozen at its value at |x| = cap so that the
    simulated SDE cannot explode in finite time; linear drifts stay
    uncapped (escape is caught by the classifier barrier first).
    """

    family: str
    k: float
    c: float = 1.0
    cap: float = 10.0

    def __post_init__(self):
        if self.family not in (LINEAR, MONOMIAL):
            raise ValueError(f"unknown drift family {self.family!r}")
        if self.family == LINEAR and not self.k > 0:
            raise ValueError("linear drift requires k > 0")
        if self.family == MONOMIAL:
            if not self.k > 1:
                raise ValueError("monomial drift requires k > 1")
            if not self.c > 0:
                raise ValueError("monomial drift requires c > 0")
            if not self.cap > 0:
                raise ValueError("monomial drift requires cap > 0")

    @cached_property
    def kernel(self):
        """f on a float64 ndarray with at least one axis, into one new array,
        with the family, k = 2 and c != 1 decided here, once per spec.  Its
        k, c, cap and cap * cap are read-only 0-d float64 arrays built here,
        which numpy takes 150-200 ns faster than Python floats.  k = 2
        computes min(x * x, cap * cap): see drift_eval for why that equals
        min(|x|, cap)^2."""
        # the ufuncs as closure cells: no module lookup per call
        absolute, square, minimum = np.absolute, np.square, np.minimum
        if self.family == LINEAR:
            k = _operand(self.k)

            def linear(x):
                out = absolute(x)
                out *= k
                return out
            return linear
        if self.k == 2.0:
            cap_squared = _operand(self.cap * self.cap)

            def capped(x):
                out = square(x)
                minimum(out, cap_squared, out=out)
                return out
        else:
            k, cap = _operand(self.k), _operand(self.cap)

            def capped(x):
                out = absolute(x)
                minimum(out, cap, out=out)
                out **= k
                return out
        if self.c == 1.0:  # v * 1.0 == v
            return capped
        c = _operand(self.c)

        def scaled(x):
            out = capped(x)
            out *= c
            return out
        return scaled

    def __reduce__(self):
        # a pickle (a spec sent to a pool worker) carries the fields alone:
        # the cached kernel is a closure, which does not pickle, so it is
        # built again where it is first read
        return type(self), (self.family, self.k, self.c, self.cap)


_FLOAT64 = np.dtype(np.float64)


def _operand(value: float, dtype=np.float64) -> np.ndarray:
    out = np.array(value, dtype=dtype)
    out.flags.writeable = False
    return out


def drift_eval(spec: DriftSpec, x):
    """Evaluate f at x (scalar or ndarray); even in x and nonnegative.

    x itself is never written.  When type(x) is np.ndarray, x.dtype is
    numpy's float64 dtype object and x.ndim > 0 (every state a run steps),
    x goes to spec.kernel, built once per spec, which makes one new array
    and updates it in place.  For k = 2 the kernel computes
    min(x * x, cap * cap), which equals min(|x|, cap)^2 bit for bit because
    correctly rounded squaring is monotone on |x|.  That fused form
    differs in two ways that move no finite value: a NaN keeps its sign
    bit, and for |x| above about 1.34e154 the square overflows before the
    min, which can raise numpy's overflow flag where min-then-square does
    not (the value is the same; rng.drive steps under
    errstate(over="ignore")).  Every other input (a scalar, 0-d, integer,
    other-float or subclass array, or a float64 array whose equal dtype is
    not numpy's own object, as after unpickling) takes the one expression
    k |x| or c min(|x|, cap)^k, which keeps float32 in float32."""
    if type(x) is np.ndarray and x.dtype is _FLOAT64 and x.ndim:
        return spec.kernel(x)
    if spec.family == LINEAR:
        return spec.k * np.abs(x)
    return spec.c * np.minimum(np.abs(x), spec.cap) ** spec.k


@dataclass(frozen=True)
class NoiseSchedule:
    """Deterministic noise amplitude g(t) > 0, strictly decreasing for t >= 1.

    power_gamma runs on the raw clock, so the drift carries the same
    t^-gamma weight; the two transformed schedules have drift weight 1.
    """

    kind: str
    gamma: float = 1.0

    def __post_init__(self):
        if self.kind not in (POWER_GAMMA, EXP_HALF, POWER_TRANSFORMED):
            raise ValueError(f"unknown noise schedule {self.kind!r}")
        if not 0.5 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (1/2, 1]")
        if self.kind == POWER_TRANSFORMED and self.gamma >= 1.0:
            raise ValueError("power_transformed requires gamma < 1 "
                             "(gamma = 1 uses the exponential clock)")

    def g(self, t):
        if self.kind == POWER_GAMMA:
            return np.asarray(t, dtype=float) ** (-self.gamma)
        if self.kind == EXP_HALF:
            return np.exp(-0.5 * np.asarray(t, dtype=float))
        expo = -self.gamma / (2.0 * (1.0 - self.gamma))
        return np.asarray(t, dtype=float) ** expo

    def drift_weight(self, t):
        if self.kind == POWER_GAMMA:
            return self.g(t)
        return np.ones_like(np.asarray(t, dtype=float))

    @property
    def min_t0(self) -> float:
        # power clocks are singular at 0; the exponential clock starts at 0
        return 0.0 if self.kind == EXP_HALF else 1.0


@dataclass(frozen=True)
class ProcessSpec:
    """One SDE instance: drift family, noise schedule, start time and state."""

    drift: DriftSpec
    noise: NoiseSchedule
    t0: float = 1.0
    x0: float = 0.0

    def __post_init__(self):
        if self.t0 < self.noise.min_t0:
            raise ValueError(
                f"t0 = {self.t0} below {self.noise.min_t0} required by "
                f"schedule {self.noise.kind!r}")


@dataclass(frozen=True)
class MeanFlowFrame:
    """Mean-flow normalization h and the Z = -X/h coordinate.

    continuous: h(t) = -t^{1/(1-k)}   solves h' = |h|^k/(k-1)
    discrete:   h(n) = -n^{(1-gamma)/(1-k)}
    Both are negative and increase to 0, so Z keeps the sign of X.
    """

    variant: str
    k: float
    gamma: float = 1.0

    def __post_init__(self):
        if self.variant not in (CONTINUOUS_H, DISCRETE_H):
            raise ValueError(f"unknown mean-flow variant {self.variant!r}")
        if not self.k > 1:
            raise ValueError("mean flow requires k > 1")
        if self.variant == DISCRETE_H and not 0.5 < self.gamma < 1.0:
            raise ValueError("discrete mean flow requires gamma in (1/2, 1)")

    @property
    def exponent(self) -> float:
        if self.variant == CONTINUOUS_H:
            return 1.0 / (1.0 - self.k)
        return (1.0 - self.gamma) / (1.0 - self.k)


def mean_flow_h(frame: MeanFlowFrame, t):
    """h evaluated at t >= 1; strictly negative, increasing to 0."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 1.0):
        raise ValueError("mean flow is defined for t >= 1")
    out = -(t ** frame.exponent)
    return float(out) if out.ndim == 0 else out


def z_coordinate(x, frame: MeanFlowFrame, t):
    """Z = -x/h(t); same sign as x because h < 0."""
    return -x / mean_flow_h(frame, t)


def time_change_power(t, gamma: float):
    """Power clock t -> t^{1/(1-gamma)}, a strictly increasing bijection of [1, inf)."""
    if not 0.5 < gamma < 1.0:
        raise ValueError("power time change requires gamma in (1/2, 1); "
                         "gamma = 1 uses the exponential change")
    t = np.asarray(t, dtype=float)
    if np.any(t < 1.0):
        raise ValueError("power time change is defined for t >= 1")
    out = t ** (1.0 / (1.0 - gamma))
    return float(out) if out.ndim == 0 else out


def time_change_power_inverse(t, gamma: float):
    if not 0.5 < gamma < 1.0:
        raise ValueError("power time change requires gamma in (1/2, 1)")
    t = np.asarray(t, dtype=float)
    out = t ** (1.0 - gamma)
    return float(out) if out.ndim == 0 else out


def time_change_exp(t):
    """Exponential clock t -> e^t for the gamma = 1 regime."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("exponential time change is defined for t >= 0")
    out = np.exp(t)
    return float(out) if out.ndim == 0 else out


def time_change_exp_inverse(t):
    t = np.asarray(t, dtype=float)
    out = np.log(t)
    return float(out) if out.ndim == 0 else out


def gamma_threshold(k: float) -> float:
    """Dichotomy threshold 1/2 + 1/(2k); strictly decreasing on [1, inf)."""
    if k < 1.0:
        raise ValueError("threshold is defined for k >= 1")
    return 0.5 + 0.5 / k


BOUNDARY_BAND = 0.02  # |gamma - threshold| <= band: reported, never gates acceptance


def predict_regime(model: str, k: float, gamma: float) -> tuple[str, bool]:
    """Predicted regime ("nonconvergence" or "convergence") and whether the
    cell lies on the boundary, for model "linear", "monomial" or "discrete".

    The linear drift k|x| on the exponential clock escapes almost surely
    for k >= 1/2.  Otherwise escape is almost sure at or below the
    threshold gamma_tilde(k); the continuous statements cover equality, the
    discrete ones are strict, so equality is left to the convergent side
    there.
    """
    if model == LINEAR:
        escapes, boundary = k >= 0.5, abs(k - 0.5) <= 0.01
    else:
        tilde = gamma_threshold(k)
        escapes = gamma < tilde if model == "discrete" else gamma <= tilde
        boundary = abs(gamma - tilde) <= BOUNDARY_BAND
    return ("nonconvergence" if escapes else "convergence"), boundary
