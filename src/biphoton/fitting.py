"""Simultaneous fit of (R_g, tau_w) vs coupling detuning.

The free parameters are theta = (b, omega_c, gamma_dec, scale): impurity
fraction, coupling Rabi frequency, ground-state decoherence rate (all in
internal Gamma units) and one calibration scale per series that converts
the arbitrary-unit model rate into the measured rate.  tau_w residuals are
scale-independent by construction.

The optimizer is a damped least-squares (Levenberg-style) loop on the
normal equations with bounds enforced by projection (a projected
Levenberg-Marquardt step; Kanzow, Yamashita and Fukushima, J. Comput.
Appl. Math. 172, 375 (2004)).  A frozen parameter and one that sits at a
bound its gradient pushes past leave the damped step the same way: one
boolean mask over the four columns of the full Jacobian says which
columns a step moves.  The Jacobian is exact: the
forward pass that gives (R_g, tau_w) at a detuning also gives their
derivatives in (b, omega_c, gamma_dec) (``forward.predict`` with
``derivatives``), and the scale column is the model rate itself.  The
loop asks for them at every theta it evaluates, since a step it takes
needs the Jacobian there next, and holds the residuals r and the
Jacobian J of its current theta, so nothing is evaluated twice and no
value is kept per theta.  Four smooth parameters need nothing fancier;
everything is deterministic for fixed inputs.

The fit has converged when the Gauss-Newton decrement over the columns a
step moves, d = g_s^T (J_s^T J_s)^+ g_s with J_s the Jacobian scaled to
unit-norm columns and g_s = J_s^T r, is at most 1e-6: no full
Gauss-Newton step could lower chi2 by more than 1e-6, so theta is within
about 1e-3 standard errors of a stationary point.  Unlike a bound on
J^T r, d does not change when the data or the parameters are rescaled
(Moré, Lecture Notes in Math. 630 (1978)).  The same test ends the loop
and sets ``converged``; ``stop_reason`` names the exit that ended it: the
decrement, a relative chi2 drop below 1e-10, no damping that lowers
chi2, or the iteration budget.  A Jacobian whose J^T J is not finite ends
the fit with a NUMERICAL error, tested before its decrement.
"""

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (BiphotonError, ExtractionError, GridOverflowError,
                     ParameterError)
from .faddeeva import _HUGE_RADIUS
from .forward import detuning_sweep
from .params import SystemParams
from .units import ghz_to_gamma, tau_to_ns
from .wavepacket import MAX_GRID_POINTS, DetuningGrid, auto_grid

PARAM_NAMES = ("b", "omega_c", "gamma_dec", "scale")
_LOWER = np.array([0.0, 1e-3, 0.0, 1e-300])
# omega_c stops below the cap of SystemParams, and gamma_dec there too,
# so that the fit grid's 2 gamma_dec stays finite
_UPPER = np.array([1.0, math.nextafter(_HUGE_RADIUS, 0.0),
                   math.nextafter(_HUGE_RADIUS, 0.0), np.inf])

# nominal relative error bar attached to noiseless synthetic series so the
# weighted fit stays defined
_NOISELESS_SIGMA_REL = 0.01
# optimizer settings: Gauss-Newton decrement (chi2 units) and relative
# chi2-drop stopping tolerances, initial Levenberg damping
_DECREMENT_TOL = 1e-6
_CHI2_REL_TOL = 1e-10
_LAMBDA_INIT = 1e-3
# gamma_dec of the default starting point, and so of its model's grid
_DEFAULT_GAMMA_DEC = 0.01


class Theta(NamedTuple):
    """Free-parameter vector of the fit."""

    b: float
    omega_c: float
    gamma_dec: float
    scale: float


@dataclass(frozen=True)
class DetuningSeries:
    """Measured (R_g, tau_w) vs coupling detuning at one power setting.

    Detunings are in GHz and widths in ns (data-file units); ``fixed``
    holds the parameter fields that the fit does not vary (alpha, Doppler
    and etalon widths, pump detuning and Rabi frequency).
    """

    delta_c_ghz: np.ndarray
    rg: np.ndarray
    rg_err: np.ndarray
    tau_w_ns: np.ndarray
    tau_w_err: np.ndarray
    fixed: SystemParams = field(default_factory=SystemParams)
    label: str = ""

    def __post_init__(self):
        arrays = {name: getattr(self, name) for name in (
            "delta_c_ghz", "rg", "rg_err", "tau_w_ns", "tau_w_err")}
        n = self.delta_c_ghz.size
        if any(a.ndim != 1 or a.size != n for a in arrays.values()):
            raise ParameterError("series columns must be 1-d and equal length")
        if n < 4:
            raise ParameterError("series needs at least 4 detuning points")
        for name, a in arrays.items():
            # NaN fails the comparison, so a NaN error bar stops here
            if name.endswith("_err") and not np.all(a > 0):
                raise ParameterError(f"error bars {name} must be positive")
            if not np.all(np.isfinite(a)):
                raise ParameterError(f"series column {name} must be finite")
        if np.unique(self.delta_c_ghz).size != n:
            raise ParameterError("detunings must be distinct")

    @property
    def n_points(self) -> int:
        return int(self.delta_c_ghz.size)


@dataclass(frozen=True)
class FitOptions:
    max_iterations: int = 60
    freeze: tuple[str, ...] = ()

    def __post_init__(self):
        n = self.max_iterations
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) \
                or n < 1:
            raise ParameterError.on_field("FitOptions.max_iterations", n,
                                          "must be an integer >= 1")
        unknown = sorted(set(self.freeze) - set(PARAM_NAMES))
        if unknown:
            raise ParameterError.on_field(
                "FitOptions.freeze", self.freeze,
                f"cannot freeze unknown parameters {', '.join(unknown)}; "
                f"the parameters are {', '.join(PARAM_NAMES)}")


@dataclass(frozen=True)
class FitResult:
    theta: Theta
    theta_err: Theta
    chi2: float
    per_point: np.ndarray       # columns: delta_c_ghz, rg_pred, tau_w_pred_ns
    converged: bool
    iterations: int
    # why the loop stopped: "decrement", "chi2_stall", "no_improving_step"
    # or "iteration_budget"
    stop_reason: str


class _ForwardModel:
    """The uncalibrated forward-model series of a fit, theta by theta.

    The detuning grid is frozen once per fit so the model stays a smooth
    function of theta: letting the grid re-size itself as gamma_dec moves
    would step the discretization under the fit.  It is the auto grid of
    twice the initial gamma_dec (the only fitted parameter the grid
    depends on), widened once: the span of the widened auto grid, at 2
    samples per gamma_dec where the auto grid takes 4.  The fit reads
    only integrals of the amplitude: R_g, a trapezoid sum of |A|^2 whose
    error falls exponentially with the spacing (Trefethen and Weideman,
    SIAM Rev. 56, 385 (2014)), and tau_w, read on a tau grid whose step
    the span sets.  Only the pointwise width of |A|^2, which the fit
    never reads, needs 4 samples per gamma_dec.  At gamma_dec = 0 and at
    the auto grid's floor, doubling gamma_dec leaves the grid as it is.
    The series generator uses the same policy, so a residual evaluated
    at the generating theta is exactly zero for noiseless data.

    The model keeps no values per theta: the fit holds those of its
    current theta.
    """

    def __init__(self, fixed: SystemParams, delta_c_ghz, gamma_dec: float):
        self.fixed = fixed
        try:
            self.grid: DetuningGrid = auto_grid(
                fixed.replace(gamma_dec=2.0 * gamma_dec)).widened()
        except GridOverflowError as exc:
            exc.args = (f"fit grid at gamma_dec = {gamma_dec:g}: passes "
                        f"the {MAX_GRID_POINTS}-point limit",)
            raise
        self.delta_c_ghz = np.asarray(delta_c_ghz, dtype=float)
        # finite in GHz is not enough: the model works in units of Gamma
        with np.errstate(over="ignore"):
            self.delta_c = ghz_to_gamma(self.delta_c_ghz)
        far = ~np.isfinite(self.delta_c)
        if far.any():
            raise ParameterError(
                f"delta_c_ghz = {float(self.delta_c_ghz[far][0])!r} is not "
                "finite in units of Gamma")

    def __call__(self, theta, derivatives=False):
        """(rg_arb, tau_w_ns, d_rg_arb, d_tau_w_ns) at every detuning, for
        the (b, omega_c, gamma_dec) that lead ``theta``.

        One ``detuning_sweep``: the first two are (n_delta_c,) arrays and
        the derivatives (n_delta_c, 3) arrays, or None without
        ``derivatives``.  The sweep stops at the first failing point,
        whose error propagates as the same object with the detuning (GHz)
        at which it failed appended to its message.
        """
        params = self.fixed.replace(b=theta[0], omega_c=theta[1],
                                    gamma_dec=theta[2])
        points = []
        for dc_ghz, pred in zip(self.delta_c_ghz, detuning_sweep(
                params, self.delta_c, self.grid, derivatives=derivatives)):
            if isinstance(pred, BiphotonError):
                raise _at_detuning(pred, dc_ghz)
            points.append((pred.rg_arb, pred.tau_w_ns, pred.d_rg_arb,
                           pred.d_tau_w))
        rg, tw, d_rg, d_tw = zip(*points)
        if not derivatives:
            return np.array(rg), np.array(tw), None, None
        return (np.array(rg), np.array(tw), np.array(d_rg),
                tau_to_ns(np.array(d_tw)))


def _at_detuning(exc, dc_ghz):
    """``exc`` with the detuning (GHz) at which it arose appended."""
    exc.args = (f"{exc} (at delta_c = {float(dc_ghz)!r} GHz)",)
    return exc


def _residual_vector(theta, series, rg_model, tw_model):
    r = np.empty(2 * series.n_points)
    r[0::2] = (theta[3] * rg_model - series.rg) / series.rg_err
    r[1::2] = (tw_model - series.tau_w_ns) / series.tau_w_err
    return r


def residuals(theta, series: DetuningSeries) -> np.ndarray:
    """Error-weighted residuals, two per detuning point (rate, width).

    Runs the full pipeline at each detuning; deterministic for fixed
    theta.  A pipeline failure propagates with the one detuning (GHz) at
    which it failed named in its message.
    """
    theta = _as_theta_array(theta)
    model = _ForwardModel(series.fixed, series.delta_c_ghz, theta[2])
    return _residual_vector(theta, series, *model(theta)[:2])


def _as_theta_array(theta):
    arr = np.asarray(tuple(theta), dtype=float)
    if arr.shape != (4,):
        raise ParameterError("theta must have 4 entries (b, omega_c, "
                             "gamma_dec, scale)")
    check_bounds(arr)
    return arr


def check_bounds(theta, prefix=""):
    """Raise ParameterError naming each entry of ``theta`` outside its
    bounds (NaN included), as ``<prefix><name> = <value> is outside
    [<lower>, <upper>]``."""
    bad = [f"{prefix}{name} = {float(v)!r} is outside [{lo:g}, {hi:g}]"
           for name, v, lo, hi in zip(PARAM_NAMES, theta, _LOWER, _UPPER)
           if not lo <= v <= hi]
    if bad:
        raise ParameterError("; ".join(bad))


def _chi2(r):
    return math.fsum(float(v) * float(v) for v in r)


def _linearize(theta, series, values):
    """The residuals r at ``theta`` and their Jacobian d r/d theta, from
    the model's ``values`` (rg, tw, d_rg, d_tw) there."""
    rg_model, tw_model, d_rg, d_tw = values
    # Fortran order: C order sends jac.T @ jac down another BLAS path,
    # which moves every fit in its last digits
    jac = np.zeros((2 * series.n_points, 4), order="F")
    jac[0::2, :3] = theta[3] * d_rg / series.rg_err[:, None]
    jac[0::2, 3] = rg_model / series.rg_err
    jac[1::2, :3] = d_tw / series.tau_w_err[:, None]
    return _residual_vector(theta, series, rg_model, tw_model), jac


def _gradient(x, r, jac, free):
    """J^T r, and the mask of the columns a step moves: the ``free`` ones
    not held at a bound the gradient pushes past."""
    grad = jac.T @ r
    held = ((x <= _LOWER) & (grad > 0)) | ((x >= _UPPER) & (grad < 0))
    return grad, free & ~held


def _normal_matrix(jac, iteration):
    """J^T J; a NUMERICAL error naming ``iteration`` where it is not
    finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        jtj = jac.T @ jac
    if not np.isfinite(jtj).all():
        raise BiphotonError(
            f"normal matrix J^T J is not finite at iteration {iteration}")
    return jtj


def _scaled_normal_inverse(jac):
    """(J_s^T J_s)^+ and the column norms of ``jac``, where J_s is ``jac``
    with each column divided by its norm (a column of norm 0 by 1).

    Scaled so that pinv's cutoff does not drop a column whose units make
    it small (the scale's is ~1e-8 of the others).
    """
    norms = np.linalg.norm(jac, axis=0)
    norms[norms == 0.0] = 1.0
    jac = jac / norms
    return np.linalg.pinv(jac.T @ jac), norms


def _decrement(jac, grad, move):
    """The Gauss-Newton decrement g_s^T (J_s^T J_s)^+ g_s over the ``move``
    columns, with g_s = J_s^T r the gradient ``grad`` in the scaled
    columns: the drop in chi2 that a full Gauss-Newton step predicts."""
    inverse, norms = _scaled_normal_inverse(jac[:, move])
    g = grad[move] / norms
    return float(g @ inverse @ g)


def fit_series(series: DetuningSeries, init: Theta | None = None,
               options: FitOptions = FitOptions()) -> FitResult:
    """Bounded damped least-squares fit of theta to one series.

    Non-convergence within the iteration budget returns the best-so-far
    theta with ``converged=False`` rather than raising.  Reproducible for
    identical inputs and options.
    """
    free = np.array([name not in options.freeze for name in PARAM_NAMES])
    if not free.any():
        raise ParameterError("all parameters are frozen; nothing to fit")
    if init is None:
        model = _ForwardModel(series.fixed, series.delta_c_ghz,
                              _DEFAULT_GAMMA_DEC)
        x = _as_theta_array(_default_init(series, model))
    else:
        x = _as_theta_array(init)
        model = _ForwardModel(series.fixed, series.delta_c_ghz, x[2])
    # the model's values, r and J at x, replaced together when a step is
    # taken; a later theta with a zero amplitude has a NaN chi2, and the
    # loop never takes it
    values = model(x, derivatives=True)
    zero = np.flatnonzero(values[0] == 0.0)
    if zero.size:
        raise _at_detuning(ExtractionError(
            "zero amplitude: no width to differentiate"),
            series.delta_c_ghz[zero[0]])
    r, jac = _linearize(x, series, values)
    chi2 = _chi2(r)
    lam = _LAMBDA_INIT
    # FitOptions holds max_iterations >= 1, so the loop binds iterations
    for iterations in range(1, options.max_iterations + 1):
        jtj = _normal_matrix(jac, iterations)
        grad, move = _gradient(x, r, jac, free)
        if _decrement(jac, grad, move) <= _DECREMENT_TOL:
            stop_reason = "decrement"
            break

        # the damped step leaves out the columns that do not move; solving
        # for a held one too would tilt the step of the others towards a
        # move that the clip below then undoes
        jtj = jtj[np.ix_(move, move)]
        diag = np.maximum(np.diag(jtj), 1e-30)
        for _ in range(25):
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), -grad[move])
            except np.linalg.LinAlgError:
                lam *= 8.0
                continue
            x_try = x.copy()
            x_try[move] += step
            np.clip(x_try, _LOWER, _UPPER, out=x_try)
            # a step in the scale alone leaves the model where it is
            values_try = (values if np.array_equal(x_try[:3], x[:3])
                          else model(x_try, derivatives=True))
            r_try, jac_try = _linearize(x_try, series, values_try)
            chi2_try = _chi2(r_try)
            if chi2_try < chi2:
                break
            lam *= 8.0
        else:
            stop_reason = "no_improving_step"
            break
        rel_drop = (chi2 - chi2_try) / max(chi2, 1e-300)
        x, values, r, jac, chi2 = x_try, values_try, r_try, jac_try, chi2_try
        lam = max(lam / 3.0, 1e-14)
        if rel_drop < _CHI2_REL_TOL:
            stop_reason = "chi2_stall"
            break
    else:
        stop_reason = "iteration_budget"

    converged = stop_reason == "decrement"
    if stop_reason in ("chi2_stall", "iteration_budget"):
        # these end the loop on a step, at a theta it has not tested
        _normal_matrix(jac, iterations)
        converged = (_decrement(jac, *_gradient(x, r, jac, free))
                     <= _DECREMENT_TOL)
    errs = _standard_errors(jac, r, free)
    rg_model, tw_model = values[:2]
    per_point = np.column_stack(
        [series.delta_c_ghz, x[3] * rg_model, tw_model])
    return FitResult(theta=Theta(*x), theta_err=Theta(*errs), chi2=chi2,
                     per_point=per_point, converged=converged,
                     iterations=iterations, stop_reason=stop_reason)


def _standard_errors(jac, r, free):
    """Standard errors of the ``free`` entries of theta; 0 for the rest."""
    errs = np.zeros(4)
    try:
        dof = max(r.size - int(free.sum()), 1)
        inverse, norms = _scaled_normal_inverse(jac[:, free])
        cov = inverse * (_chi2(r) / dof)
        errs[free] = np.sqrt(np.maximum(np.diag(cov), 0.0)) / norms
    except np.linalg.LinAlgError:
        errs[:] = np.nan
    return errs


def default_init(series: DetuningSeries) -> Theta:
    """Heuristic starting point: coarse 1-d scan in omega_c.

    b starts at 0.3 and gamma at 0.01; omega_c minimizes the tau_w-only
    weighted residual over a logarithmic scan, and the scale matches the
    measured rate at the first point.
    """
    return _default_init(series, _ForwardModel(
        series.fixed, series.delta_c_ghz, _DEFAULT_GAMMA_DEC))


def _default_init(series: DetuningSeries, model: _ForwardModel) -> Theta:
    """``default_init`` on ``model``, which the fit from it then reuses."""
    best = None
    for omega_c in np.geomspace(4.0, 30.0, 9):
        theta = Theta(b=0.3, omega_c=float(omega_c),
                      gamma_dec=_DEFAULT_GAMMA_DEC, scale=1.0)
        rg_model, tw, _, _ = model(np.asarray(theta))
        cost = _chi2((tw - series.tau_w_ns) / series.tau_w_err)
        if best is None or cost < best[0]:
            best = (cost, theta, rg_model)
    _, theta, rg_model = best
    scale = float(series.rg[0] / rg_model[0]) if rg_model[0] > 0 else 1.0
    return Theta(theta.b, theta.omega_c, theta.gamma_dec, max(scale, 1e-300))


def apply_multiplicative_noise(values, rel_sigma, rng) -> np.ndarray:
    """values * (1 + rel_sigma * N(0,1)), the noise model of the generator."""
    values = np.asarray(values, dtype=float)
    if rel_sigma == 0.0:
        return values.copy()
    return values * (1.0 + rel_sigma * rng.standard_normal(values.shape))


def synthesize_series(theta: Theta, detunings_ghz, noise: float, seed: int,
                      fixed: SystemParams | None = None,
                      label: str = "synthetic") -> DetuningSeries:
    """Forward-model series with multiplicative Gaussian noise.

    ``noise`` is the relative sigma applied independently to rates and
    widths; the attached error bars match it (a nominal 1% is attached
    when noise = 0 so weighted fits remain defined).  A fixed seed makes
    the output bit-identical across runs.
    """
    if fixed is None:
        fixed = SystemParams()
    detunings_ghz = np.asarray(detunings_ghz, dtype=float)
    model = _ForwardModel(fixed, detunings_ghz, theta.gamma_dec)
    rg_model, tw, _, _ = model(np.asarray(theta))
    rg = theta.scale * rg_model
    rng = np.random.default_rng(seed)
    rg_noisy = apply_multiplicative_noise(rg, noise, rng)
    tw_noisy = apply_multiplicative_noise(tw, noise, rng)
    sigma = noise if noise > 0 else _NOISELESS_SIGMA_REL
    return DetuningSeries(
        delta_c_ghz=detunings_ghz.copy(), rg=rg_noisy,
        rg_err=np.abs(rg) * sigma, tau_w_ns=tw_noisy,
        tau_w_err=np.abs(tw) * sigma, fixed=fixed, label=label)


def format_fit_report(result: FitResult, series: DetuningSeries) -> str:
    """Structured text report: values +- errors, chi2, per-point table."""
    lines = [f"series: {series.label or '(unlabeled)'}",
             f"converged: {str(result.converged).lower()}",
             f"iterations: {result.iterations}",
             f"stop_reason: {result.stop_reason}",
             f"chi2: {float(result.chi2)!r}"]
    for name in PARAM_NAMES:
        val = float(getattr(result.theta, name))
        err = float(getattr(result.theta_err, name))
        lines.append(f"{name}: {val!r} +- {err!r}")
    lines.append("per_point: delta_c_ghz,rg_meas,rg_pred,tauw_meas,tauw_pred")
    for i in range(series.n_points):
        dc, rg_pred, tw_pred = result.per_point[i]
        lines.append(",".join(repr(float(v)) for v in
                              (dc, series.rg[i], rg_pred,
                               series.tau_w_ns[i], tw_pred)))
    return "\n".join(lines) + "\n"
