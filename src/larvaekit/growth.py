"""Length-at-age growth models: fitting and ranking.

Five families are supported (von Bertalanffy, Gompertz, linear, power,
exponential). The nonlinear ones are fitted by a damped Gauss-Newton
iteration with analytic Jacobians; the linear model is solved in closed
form. Goodness of fit is the coefficient of determination R² = 1 - SSE/SST.

Gompertz, ``l_inf·exp(-k2·exp(-a(t - tr)))``, depends on ``k2`` and ``tr``
only through ``k2·exp(a·tr)``, so it is fitted as ``(l_inf, k2, a)`` and
reported with ``tr = 0``.

A trial step is kept only if it lowers the SSE, and the damping factor is
then divided by 10, to no less than 1e-12. Any other step, one that leaves
the SSE as it was too, is rejected and multiplies the factor by 10. The fit has
converged at an SSE of exactly 0, at the start or after any kept step, or
when a kept step lowers the SSE by less than 1e-10 of its value. It stops
unconverged after 200 attempted steps, or once the factor exceeds 1e12.

``rank_models`` returns plain ``FitResult``s: the first family, in
declaration order, that cannot be fitted fails the whole ranking.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .annotations import _csv_rows
from .errors import LarvaekitError, MalformedLine, OutOfRange, SingularNormalEquations


class GrowthModelKind(enum.Enum):
    VBGM = "vbgm"
    GOMPERTZ = "gompertz"
    LINEAR = "linear"
    POWER = "power"
    EXPONENTIAL = "exponential"


DISPLAY_NAMES = {
    GrowthModelKind.VBGM: "VBGM",
    GrowthModelKind.GOMPERTZ: "Gompertz",
    GrowthModelKind.LINEAR: "Linear",
    GrowthModelKind.POWER: "Power",
    GrowthModelKind.EXPONENTIAL: "Exponential",
}

PARAM_NAMES = {
    GrowthModelKind.VBGM: ("l_inf", "k1", "t0"),
    GrowthModelKind.GOMPERTZ: ("l_inf", "k2", "a", "tr"),
    GrowthModelKind.LINEAR: ("a", "b"),
    GrowthModelKind.POWER: ("a", "b"),
    GrowthModelKind.EXPONENTIAL: ("a", "b"),
}

MAX_ITERATIONS = 200
REL_SSE_TOL = 1e-10
MULTI_STARTS = 5


def parse_model_kind(name: str) -> GrowthModelKind:
    try:
        return GrowthModelKind(name.strip().lower())
    except ValueError:
        valid = ", ".join(k.value for k in GrowthModelKind)
        raise ValueError(f"unknown model {name!r}; expected one of {valid}") from None


@dataclass(frozen=True)
class GrowthObservation:
    """One (age, mean length) measurement."""

    age_days: float
    length_mm: float

    def __post_init__(self):
        if not (math.isfinite(self.age_days) and self.age_days >= 0):
            raise OutOfRange(f"age_days must be finite and non-negative, got {self.age_days}")
        # 50 mm is far beyond any larval stage; longer "lengths" are data errors.
        if not 0.0 < self.length_mm < 50.0:
            raise OutOfRange(f"length_mm must lie in (0, 50), got {self.length_mm}")


@dataclass(frozen=True)
class FitResult:
    """One family's fitted parameters and fit quality.

    ``iterations`` counts damped steps summed over the starts that
    finished, so under ``multi_start`` it is their total work, not the
    winning start's share.
    """

    kind: GrowthModelKind
    params: tuple[float, ...]
    sse: float
    r_squared: float
    iterations: int
    converged: bool


def _model(kind: GrowthModelKind, p: Sequence[float], t: np.ndarray):
    """Model values at ages ``t`` and their Jacobian, one column per parameter.

    No domain checks: non-finite values pass through so the damping loop
    can reject overflowing trial steps. Gompertz takes ``tr`` as an
    optional fourth parameter, 0 when absent.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if kind is GrowthModelKind.VBGM:
            l_inf, k1, t0 = p
            decay = np.exp(-k1 * (t - t0))
            columns = [1.0 - decay, l_inf * (t - t0) * decay, -l_inf * k1 * decay]
            return l_inf * (1.0 - decay), np.column_stack(columns)
        if kind is GrowthModelKind.GOMPERTZ:
            l_inf, k2, a, tr = (*p, 0.0)[:4]
            decay = np.exp(-a * (t - tr))
            shape = np.exp(-k2 * decay)
            values = l_inf * shape
            slope = values * k2 * decay
            columns = [shape, -values * decay, slope * (t - tr), -slope * a]
            return values, np.column_stack(columns[:len(p)])
        if kind is GrowthModelKind.LINEAR:
            a, b = p
            return a * t + b, np.column_stack([t, np.ones_like(t)])
        if kind is GrowthModelKind.POWER:
            a, b = p
            pos = t > 0
            powered = np.power(t, b, out=np.zeros_like(t), where=pos)
            log_t = np.log(t, out=np.zeros_like(t), where=pos)
            return a * powered, np.column_stack([powered, a * powered * log_t])
        if kind is GrowthModelKind.EXPONENTIAL:
            a, b = p
            grown = np.exp(b * t)
            return a * grown, np.column_stack([grown, a * t * grown])
    raise ValueError(f"unknown model kind {kind!r}")


def predict(kind: GrowthModelKind, params: Sequence[float], t):
    """Evaluate a growth model at age(s) ``t`` (days), returning mm.

    ``t`` may be a scalar or an array; ages must be finite and
    non-negative. The power model is 0 at t=0 by definition.
    """
    expected = len(PARAM_NAMES[kind])
    if len(params) != expected:
        raise ValueError(f"{kind.value} takes {expected} parameters, got {len(params)}")
    t_arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t_arr)) or np.any(t_arr < 0):
        raise OutOfRange("ages must be finite and non-negative")
    values, _ = _model(kind, tuple(float(v) for v in params), np.atleast_1d(t_arr))
    if not np.all(np.isfinite(values)):
        raise LarvaekitError(f"{kind.value} overflowed at the requested ages")
    if t_arr.ndim == 0:
        return float(values[0])
    return values


def _sse(kind: GrowthModelKind, p: np.ndarray, t: np.ndarray, lengths: np.ndarray):
    """(SSE, residuals, Jacobian) at ``p``."""
    values, J = _model(kind, p, t)
    r = lengths - values
    return float(r @ r), r, J


def _damped_least_squares(
    kind: GrowthModelKind,
    p0: Sequence[float],
    t: np.ndarray,
    lengths: np.ndarray,
) -> tuple[np.ndarray, float, int, bool, list[float]]:
    """Damped Gauss-Newton refinement.

    Returns (params, sse, iterations, converged, accepted-SSE history).
    Every attempted step counts as an iteration; each trial's residuals
    and Jacobian are kept only when the step is accepted.
    """
    p = np.asarray(p0, dtype=float)
    # Overflow is expected here: non-finite trial steps are caught and rejected.
    with np.errstate(over="ignore", invalid="ignore"):
        best, r, J = _sse(kind, p, t, lengths)
        history = [best]
        lam = 1e-3
        converged = best == 0.0
        iterations = 0
        while not converged and iterations < MAX_ITERATIONS:
            iterations += 1
            damped = J.T @ J + lam * np.eye(p.size)
            try:
                step = np.linalg.solve(damped, J.T @ r)
            except np.linalg.LinAlgError:
                raise SingularNormalEquations(
                    f"damped normal equations are singular (lambda={lam:g})"
                ) from None
            if not np.all(np.isfinite(step)):
                raise SingularNormalEquations("normal-equation solve produced non-finite step")
            trial = p + step
            trial_sse, trial_r, trial_J = _sse(kind, trial, t, lengths)
            if trial_sse < best:
                rel = (best - trial_sse) / best if best > 0 else 1.0
                p, best, r, J = trial, trial_sse, trial_r, trial_J
                history.append(best)
                lam = max(lam / 10.0, 1e-12)
                if best == 0.0 or rel < REL_SSE_TOL:
                    converged = True
            else:
                lam *= 10.0
                if lam > 1e12:
                    # Not even a vanishing step improves; we are stalled.
                    break
    return p, best, iterations, converged, history


def _prepared(observations: Sequence[GrowthObservation], n_params: int):
    if len(observations) < n_params + 1:
        raise LarvaekitError(f"needs at least {n_params + 1} observations, got {len(observations)}")
    ordered = sorted(observations, key=lambda o: o.age_days)
    t = np.array([o.age_days for o in ordered], dtype=float)
    lengths = np.array([o.length_mm for o in ordered], dtype=float)
    if np.unique(t).size < 2:
        raise LarvaekitError("needs at least two distinct ages")
    return t, lengths


def _initial_params(kind: GrowthModelKind, t: np.ndarray, lengths: np.ndarray) -> list[float]:
    l_top = 1.1 * float(lengths.max())
    if kind is GrowthModelKind.VBGM:
        return [l_top, 0.1, 0.0]
    if kind is GrowthModelKind.GOMPERTZ:
        return [l_top, math.log(l_top / float(lengths[0])), 0.1]
    if kind is GrowthModelKind.POWER:
        pos = t > 0
        if np.unique(t[pos]).size < 2:
            raise LarvaekitError("needs two distinct positive ages to initialize")
        return _log_linear_start(np.log(t[pos]), lengths[pos])
    if kind is GrowthModelKind.EXPONENTIAL:
        return _log_linear_start(t, lengths)
    raise ValueError(f"no initializer for {kind!r}")


def _log_linear_start(x: np.ndarray, lengths: np.ndarray) -> list[float]:
    """[a, b] from the regression log L = log a + b x."""
    (b0, log_a0), _ = _fit_linear(x, np.log(lengths))
    try:
        return [math.exp(log_a0), b0]
    except OverflowError:
        raise LarvaekitError(f"initial scale exp({log_a0:.6g}) overflows") from None


def _fit_linear(t: np.ndarray, lengths: np.ndarray) -> tuple[tuple[float, float], float]:
    # Centered sums: uncentered ones cancel for ages far from 0 with a small spread.
    with np.errstate(over="ignore", invalid="ignore"):
        t_mean, y_mean = float(t.mean()), float(lengths.mean())
        dt = t - t_mean
        sxx = float(dt @ dt)
        if sxx == 0.0:
            raise SingularNormalEquations("all ages identical")
        slope = float(dt @ (lengths - y_mean)) / sxx
        intercept = y_mean - slope * t_mean
        residuals = lengths - (slope * t + intercept)
        sse = float(residuals @ residuals)
    if not all(map(math.isfinite, (sxx, slope, intercept, sse))):
        raise LarvaekitError("least-squares line overflows")
    return (slope, intercept), sse


def _total_sum_of_squares(lengths: np.ndarray) -> float:
    sst = float(((lengths - lengths.mean()) ** 2).sum())
    if sst == 0.0:
        raise LarvaekitError("all lengths are equal; R-squared is undefined")
    return sst


def fit(
    kind: GrowthModelKind,
    observations: Sequence[GrowthObservation],
    multi_start: bool = False,
    seed: int = 0,
) -> FitResult:
    """Least-squares fit of one model family.

    The linear family is solved exactly; power/exponential start from a
    log-space regression (power drops t=0 points for the initialization
    only) and the sigmoids start from l_inf = 1.1*max(L), rates 0.1/day,
    t0 = 0, k2 = ln(l_inf / first length), with Gompertz tr held at 0.
    ``multi_start`` adds five jittered restarts (seeded, deterministic)
    and keeps the lowest SSE, which guards the sigmoids against local
    minima. A start whose damped normal equations fail is skipped; the
    fit fails, with the first start's error, only when every start does.
    """
    names = PARAM_NAMES[kind]
    t, lengths = _prepared(observations, len(names))
    sst = _total_sum_of_squares(lengths)
    if kind is GrowthModelKind.LINEAR:
        params, sse = _fit_linear(t, lengths)
        return FitResult(kind, params, sse, 1.0 - sse / sst, iterations=0, converged=True)
    p0 = _initial_params(kind, t, lengths)
    starts = [p0]
    if multi_start:
        rng = np.random.default_rng(seed)
        scale = np.maximum(1.0, np.abs(p0))
        for _ in range(MULTI_STARTS):
            starts.append(list(p0 + 0.25 * scale * rng.standard_normal(len(p0))))
    finished, errors = [], []
    for start in starts:
        try:
            finished.append(_damped_least_squares(kind, start, t, lengths))
        except SingularNormalEquations as err:
            errors.append(err)
    if not finished:
        raise errors[0]
    p, sse, _, converged, _ = min(finished, key=lambda run: run[1])
    fixed = (0.0,) * (len(names) - p.size)  # Gompertz tr
    return FitResult(
        kind,
        tuple(float(v) for v in p) + fixed,
        sse,
        1.0 - sse / sst,
        iterations=sum(run[2] for run in finished),
        converged=converged,
    )


def rank_models(
    observations: Sequence[GrowthObservation],
    kinds: Sequence[GrowthModelKind] = tuple(GrowthModelKind),
    multi_start: bool = False,
    seed: int = 0,
) -> list[FitResult]:
    """Fit the requested families and sort by descending R².

    Ties break toward the family with fewer parameters, then declaration
    order. Families are fitted in declaration order whatever the order of
    ``kinds``: the first whose fit raises a domain error fails the ranking
    with a LarvaekitError that names it, and no later family is fitted.
    Any other exception is a bug and propagates. Degenerate constant-length
    data raises LarvaekitError outright since no family can be scored on it.
    """
    lengths = np.array([o.length_mm for o in observations], dtype=float)
    if lengths.size and lengths.min() == lengths.max():
        raise LarvaekitError("all lengths are equal; models cannot be ranked")
    fitted = []
    for kind in sorted(kinds, key=list(GrowthModelKind).index):
        try:
            fitted.append(fit(kind, observations, multi_start, seed))
        except LarvaekitError as err:
            raise LarvaekitError(f"{kind.value}: {err}") from err
    # A stable sort: equal keys keep declaration order.
    fitted.sort(key=lambda r: (-r.r_squared, len(PARAM_NAMES[r.kind])))
    return fitted


# --- observation CSV I/O ---


def load_observations_csv(text: str) -> list[GrowthObservation]:
    """Parse `age_days,length_mm[,stage]` CSV text into observations."""
    observations = []
    for row_no, row in _csv_rows(text, ("age_days", "length_mm"), "observation CSV"):
        try:
            age = float(row["age_days"])
            length = float(row["length_mm"])
        except (TypeError, ValueError):
            raise MalformedLine(row_no, "age_days and length_mm must be numeric") from None
        observations.append(GrowthObservation(age, length))
    return observations


def bundled_stage_means() -> list[GrowthObservation]:
    """The packaged per-stage mean lengths (11 stages, ages 0-18 days)."""
    text = (Path(__file__).parent / "data" / "stage_mean_lengths.csv").read_text(encoding="utf-8")
    return load_observations_csv(text)
