"""Fitter oracle: each nonlinear family's SSE against MINPACK's Levenberg-Marquardt.

Needs scipy, which only the ``test`` extra installs; skipped without it.
"""

import numpy as np
import pytest

from larvaekit import growth
from larvaekit.growth import GrowthModelKind, GrowthObservation, bundled_stage_means, fit

least_squares = pytest.importorskip("scipy.optimize").least_squares

K = GrowthModelKind

# Written out here, not taken from larvaekit, so the oracle shares no
# arithmetic with the fitter. Gompertz is fitted with tr = 0.
CURVES = {
    K.VBGM: lambda p, t: p[0] * (1.0 - np.exp(-p[1] * (t - p[2]))),
    K.GOMPERTZ: lambda p, t: p[0] * np.exp(-p[1] * np.exp(-p[2] * t)),
    K.POWER: lambda p, t: p[0] * np.where(t > 0, t, 1.0) ** p[1] * (t > 0),
    K.EXPONENTIAL: lambda p, t: p[0] * np.exp(p[1] * t),
}

# Curves near the bundled fits; the synthetic series scatter around them.
TRUE_PARAMS = {
    K.VBGM: (19.3, 0.024, -2.9),
    K.GOMPERTZ: (9.2, 1.9, 0.12),
    K.POWER: (1.2, 0.64),
    K.EXPONENTIAL: (2.2, 0.072),
}


def synthetic(kind, seed):
    rng = np.random.default_rng(seed)
    ages = np.sort(rng.uniform(0.0, 20.0, size=12))
    lengths = CURVES[kind](TRUE_PARAMS[kind], ages) + rng.normal(0.0, 0.2, size=ages.size)
    return [GrowthObservation(float(t), float(v)) for t, v in zip(ages, lengths)]


def minpack_sse(kind, t, lengths, start):
    def residuals(p):
        with np.errstate(over="ignore", invalid="ignore"):
            return CURVES[kind](p, t) - lengths

    found = least_squares(residuals, start, method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
    return 2.0 * found.cost


@pytest.mark.parametrize("multi_start", [False, True], ids=["single", "multi"])
@pytest.mark.parametrize("kind", list(CURVES), ids=[k.value for k in CURVES])
@pytest.mark.parametrize("data", ["bundled", 1, 2, 3])
def test_sse_matches_levenberg_marquardt(data, kind, multi_start):
    observations = bundled_stage_means() if data == "bundled" else synthetic(kind, data)
    t = np.array([o.age_days for o in observations])
    lengths = np.array([o.length_mm for o in observations])
    result = fit(kind, observations, multi_start=multi_start)
    free = result.params[:3] if kind is K.GOMPERTZ else result.params
    assert result.params[len(free):] in ((), (0.0,))
    # MINPACK polishing the fit, and MINPACK from the fitter's own start:
    # the fit must be a minimum, and no worse than what MINPACK reaches.
    polished = minpack_sse(kind, t, lengths, free)
    from_start = minpack_sse(kind, t, lengths, growth._initial_params(kind, t, lengths))
    assert result.sse == pytest.approx(min(polished, from_start), rel=1e-9, abs=0.0)
