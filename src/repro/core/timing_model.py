"""Ultra-compact analytical timing model (Section III of the paper).

Delay and output slew of a cell arc are both modelled with the same
four-parameter expression

.. math::

    T = k_d \\, \\frac{(V_{dd} + V')(C_{load} + C_{par} + \\alpha S_{in})}{I_{eff}}

which generalizes the classic ``Cload * Vdd / Idsat`` delay metric:

* ``kd`` -- dimensionless scaling factor;
* ``Cpar`` -- parasitic output capacitance not included in ``Cload``;
* ``V'`` -- supply-offset correction that fixes the low-``Vdd`` behaviour;
* ``alpha`` -- linear sensitivity of the switched charge to the input slew.

For numerical conditioning (and so reports read like the paper's Table I),
parameters are stored in "natural" units -- ``Cpar`` in femtofarads and
``alpha`` in femtofarads per picosecond -- giving all four parameters
magnitudes of order one.  The evaluation functions convert internally; every
physical input and output stays in SI units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.utils.units import FEMTO, PICO

#: Number of model parameters.
N_PARAMETERS = 4

#: Parameter names in canonical order.
PARAMETER_NAMES = ("kd", "cpar_ff", "vprime_v", "alpha_ff_per_ps")

#: Default parameter bounds in natural units: ``kd`` dimensionless, ``Cpar``
#: in fF, ``V'`` in volts, ``alpha`` in fF/ps.  They are intentionally loose;
#: they exist to keep the optimizer out of unphysical regions (negative
#: capacitance, supply offsets beyond the rail).
DEFAULT_LOWER_BOUNDS = np.array([1e-3, 0.0, -0.60, 0.0])
DEFAULT_UPPER_BOUNDS = np.array([5.0, 20.0, 0.60, 10.0])

#: Default initial guess used when no prior information is available.
DEFAULT_INITIAL_GUESS = np.array([0.4, 1.0, -0.25, 0.1])


@dataclass(frozen=True)
class TimingModelParameters:
    """The four compact-model parameters in natural units.

    Attributes
    ----------
    kd:
        Dimensionless delay scaling factor.
    cpar_ff:
        Parasitic capacitance in femtofarads.
    vprime_v:
        Supply-voltage offset in volts (typically negative).
    alpha_ff_per_ps:
        Input-slew charge coefficient in femtofarads per picosecond.
    """

    kd: float
    cpar_ff: float
    vprime_v: float
    alpha_ff_per_ps: float

    def as_array(self) -> np.ndarray:
        """Parameters as a length-4 array in canonical order."""
        return np.array([self.kd, self.cpar_ff, self.vprime_v, self.alpha_ff_per_ps])

    @classmethod
    def from_array(cls, values: Sequence[float]) -> "TimingModelParameters":
        """Build parameters from a length-4 array in canonical order."""
        values = np.asarray(values, dtype=float).reshape(-1)
        if values.size != N_PARAMETERS:
            raise ValueError(f"expected {N_PARAMETERS} parameters, got {values.size}")
        return cls(kd=float(values[0]), cpar_ff=float(values[1]),
                   vprime_v=float(values[2]), alpha_ff_per_ps=float(values[3]))

    def describe(self) -> str:
        """Compact human-readable rendering (Table I style)."""
        return (f"kd={self.kd:.3f}, Cpar={self.cpar_ff:.3f} fF, "
                f"V'={self.vprime_v:+.3f} V, alpha={self.alpha_ff_per_ps:.3f} fF/ps")


class CompactTimingModel:
    """Evaluation of the four-parameter timing model.

    The class is stateless apart from the parameter bounds; a single instance
    serves both the delay and the output-slew response (with different
    parameter values), mirroring the paper's "same format, different fitting
    parameters" observation.
    """

    def __init__(self,
                 lower_bounds: Optional[np.ndarray] = None,
                 upper_bounds: Optional[np.ndarray] = None):
        self._lower = (np.asarray(lower_bounds, dtype=float)
                       if lower_bounds is not None else DEFAULT_LOWER_BOUNDS.copy())
        self._upper = (np.asarray(upper_bounds, dtype=float)
                       if upper_bounds is not None else DEFAULT_UPPER_BOUNDS.copy())
        if self._lower.shape != (N_PARAMETERS,) or self._upper.shape != (N_PARAMETERS,):
            raise ValueError("bounds must be length-4 arrays")
        if np.any(self._lower >= self._upper):
            raise ValueError("lower bounds must be strictly below upper bounds")

    @property
    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(lower, upper)`` parameter bounds in natural units."""
        return self._lower.copy(), self._upper.copy()

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    @staticmethod
    def evaluate_array(theta: np.ndarray, sin: np.ndarray, cload: np.ndarray,
                       vdd: np.ndarray, ieff: np.ndarray) -> np.ndarray:
        """Evaluate the model for a parameter array in natural units.

        All physical arguments are in SI units (seconds, farads, volts,
        amperes) and broadcast against each other; the returned response is
        in seconds.
        """
        theta = np.asarray(theta, dtype=float)
        kd = theta[..., 0]
        cpar = theta[..., 1] * FEMTO
        vprime = theta[..., 2]
        alpha = theta[..., 3] * FEMTO / PICO
        sin = np.asarray(sin, dtype=float)
        cload = np.asarray(cload, dtype=float)
        vdd = np.asarray(vdd, dtype=float)
        ieff = np.asarray(ieff, dtype=float)
        charge = (vdd + vprime) * (cload + cpar + alpha * sin)
        return kd * charge / ieff

    def evaluate(self, params: TimingModelParameters, sin, cload, vdd, ieff
                 ) -> np.ndarray:
        """Evaluate the model for a :class:`TimingModelParameters` instance."""
        return self.evaluate_array(params.as_array(), sin, cload, vdd, ieff)

    @staticmethod
    def evaluate_and_jacobian(theta: np.ndarray, sin: np.ndarray,
                              cload: np.ndarray, vdd: np.ndarray,
                              ieff: np.ndarray
                              ) -> Tuple[np.ndarray, np.ndarray]:
        """Model predictions plus the analytic Jacobian in natural units.

        The model is affine in three of its four parameters and bilinear in
        the fourth, so the Jacobian is available in closed form -- this is
        what lets the batched MAP solver (:mod:`repro.core.batch_map`) take
        exact Gauss-Newton steps instead of re-evaluating the model four
        extra times per seed for finite differences.

        Parameters
        ----------
        theta:
            Parameter array of shape ``(..., 4)`` in natural units.
        sin, cload, vdd, ieff:
            Operating points in SI units.  Like :meth:`evaluate_array`, the
            parameters (``theta[..., i]``) and the operating points broadcast
            against each other: the batched MAP solver passes ``theta`` of
            shape ``(m, 4)`` and conditions of shape ``(k, m)`` (one column
            per row) or ``(k, 1)`` (shared by every row).

        Returns
        -------
        (prediction, jacobian):
            ``prediction`` has the broadcast shape of the arguments
            (seconds) and ``jacobian`` is parameter-major, shape
            ``(4,) + prediction.shape``, with ``jacobian[i] = d prediction /
            d theta_i`` in natural units (i.e. per fF for ``Cpar`` and per
            fF/ps for ``alpha``), so each derivative is one contiguous array.
        """
        theta = np.asarray(theta, dtype=float)
        if theta.shape[-1:] != (N_PARAMETERS,):
            raise ValueError(f"theta must have shape (..., {N_PARAMETERS})")
        sin, cload, vdd, ieff = (np.asarray(value, dtype=float)
                                 for value in (sin, cload, vdd, ieff))
        kd = theta[..., 0]
        cpar = theta[..., 1] * FEMTO
        vprime = theta[..., 2]
        alpha = theta[..., 3] * FEMTO / PICO

        supply_per_ieff = (vdd + vprime) / ieff
        charge_cap = cload + cpar + alpha * sin
        kd_supply_per_ieff = kd * supply_per_ieff
        prediction = kd_supply_per_ieff * charge_cap

        jacobian = np.empty((N_PARAMETERS,) + prediction.shape)
        np.multiply(supply_per_ieff, charge_cap, out=jacobian[0])
        np.multiply(kd_supply_per_ieff, FEMTO, out=jacobian[1])
        np.divide(kd * charge_cap, ieff, out=jacobian[2])
        np.multiply(kd_supply_per_ieff * (FEMTO / PICO), sin, out=jacobian[3])
        return prediction, jacobian

    # ------------------------------------------------------------------
    # Diagnostics used by the Fig. 2 / Fig. 3 collapse benchmarks
    # ------------------------------------------------------------------
    @staticmethod
    def vdd_collapse(response: np.ndarray, ieff: np.ndarray, vdd: np.ndarray,
                     vprime_v: float) -> np.ndarray:
        """``T * Ieff / (Vdd + V')`` -- constant across Vdd if the model holds."""
        response = np.asarray(response, dtype=float)
        ieff = np.asarray(ieff, dtype=float)
        vdd = np.asarray(vdd, dtype=float)
        return response * ieff / (vdd + vprime_v)

    @staticmethod
    def load_slew_collapse(response: np.ndarray, cload: np.ndarray, sin: np.ndarray,
                           cpar_ff: float, alpha_ff_per_ps: float) -> np.ndarray:
        """``T / (Cload + Cpar + alpha*Sin)`` -- constant if the model holds."""
        response = np.asarray(response, dtype=float)
        cload = np.asarray(cload, dtype=float)
        sin = np.asarray(sin, dtype=float)
        denominator = cload + cpar_ff * FEMTO + alpha_ff_per_ps * FEMTO / PICO * sin
        return response / denominator


@dataclass(frozen=True)
class FitResult:
    """Outcome of a least-squares or MAP parameter extraction.

    Attributes
    ----------
    params:
        The extracted parameters.
    mean_abs_relative_error:
        Mean absolute relative error of the fit on its own training data.
    max_abs_relative_error:
        Worst-case training relative error.
    residuals:
        Relative residuals (model - observed) / observed, one per sample.
    n_observations:
        Number of training samples used.
    converged:
        Whether the optimizer reported success.
    """

    params: TimingModelParameters
    mean_abs_relative_error: float
    max_abs_relative_error: float
    residuals: np.ndarray
    n_observations: int
    converged: bool


def fit_least_squares(
    sin: np.ndarray,
    cload: np.ndarray,
    vdd: np.ndarray,
    ieff: np.ndarray,
    response: np.ndarray,
    model: Optional[CompactTimingModel] = None,
    initial_guess: Optional[np.ndarray] = None,
    weights: Optional[np.ndarray] = None,
) -> FitResult:
    """Plain (non-Bayesian) least-squares extraction of the model parameters.

    Relative residuals are minimized, so small and large responses are
    weighted evenly across the input space.  This is the "Proposed Model +
    LSE" baseline of the paper's Figs. 6 and 8; the MAP estimator in
    :mod:`repro.core.batch_map` adds the prior and precision terms.

    Parameters
    ----------
    sin, cload, vdd, ieff:
        Operating-point arrays (SI units), all of the same length.
    response:
        Observed delay or output slew, in seconds.
    model:
        Optional :class:`CompactTimingModel` (supplies bounds).
    initial_guess:
        Optional starting parameter vector in natural units.
    weights:
        Optional non-negative per-sample weights applied to the relative
        residuals.

    Raises
    ------
    ValueError
        On shape mismatches or non-positive responses.
    """
    from scipy.optimize import least_squares  # deferred: SciPy loads on first use

    model = model or CompactTimingModel()
    sin = np.asarray(sin, dtype=float).reshape(-1)
    cload = np.asarray(cload, dtype=float).reshape(-1)
    vdd = np.asarray(vdd, dtype=float).reshape(-1)
    ieff = np.asarray(ieff, dtype=float).reshape(-1)
    response = np.asarray(response, dtype=float).reshape(-1)
    n_obs = response.size
    for name, array in (("sin", sin), ("cload", cload), ("vdd", vdd), ("ieff", ieff)):
        if array.size != n_obs:
            raise ValueError(f"{name} has {array.size} entries, expected {n_obs}")
    if n_obs == 0:
        raise ValueError("at least one observation is required")
    if np.any(response <= 0.0):
        raise ValueError("responses must be strictly positive")
    if weights is None:
        weights = np.ones(n_obs)
    else:
        weights = np.asarray(weights, dtype=float).reshape(-1)
        if weights.size != n_obs:
            raise ValueError("weights must match the number of observations")
        if np.any(weights < 0.0):
            raise ValueError("weights must be non-negative")

    lower, upper = model.bounds
    if initial_guess is None:
        guess = DEFAULT_INITIAL_GUESS.copy()
    else:
        guess = np.asarray(initial_guess, dtype=float).reshape(-1).copy()
        if guess.size != N_PARAMETERS:
            raise ValueError(f"initial_guess must have {N_PARAMETERS} entries")
    guess = np.clip(guess, lower + 1e-9, upper - 1e-9)
    sqrt_weights = np.sqrt(weights)

    def residual(theta: np.ndarray) -> np.ndarray:
        prediction = CompactTimingModel.evaluate_array(theta, sin, cload, vdd, ieff)
        return sqrt_weights * (prediction - response) / response

    solution = least_squares(residual, guess, bounds=(lower, upper), method="trf")
    relative = (CompactTimingModel.evaluate_array(solution.x, sin, cload, vdd, ieff)
                - response) / response
    params = TimingModelParameters.from_array(solution.x)
    return FitResult(
        params=params,
        mean_abs_relative_error=float(np.mean(np.abs(relative))),
        max_abs_relative_error=float(np.max(np.abs(relative))),
        residuals=relative,
        n_observations=n_obs,
        converged=bool(solution.success),
    )
