"""Validated parameter record for the biphoton source model.

All angular frequencies are stored in units of Gamma (the excited-state
decay rate) and all times in units of 1/Gamma; :mod:`biphoton.units` holds
the lab-unit converters.  ``from_lab_units`` accepts detunings in GHz and
keeps Rabi frequencies and widths in Gamma units, matching how the source
is normally characterized.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError
from .faddeeva import _HUGE_RADIUS
from .units import ghz_to_gamma

# Defaults fixed by the apparatus: optical depth from the absorption
# spectrum, Doppler e^-1 half-width from the cell temperature, effective
# etalon width from the measured transmission spectra, pump detuning from
# the lock point.  The pump Rabi frequency only sets a global linear scale
# of the wave packet and is absorbed by the calibration scale in fits.
DEFAULT_ALPHA = 500.0
DEFAULT_GAMMA_DOPPLER = 54.0
DEFAULT_GAMMA_ETALON = 8.9
DEFAULT_DELTA_P_GHZ = 1.9
DEFAULT_OMEGA_P = 1.0


@dataclass(frozen=True)
class SystemParams:
    """Physical constants and knobs of the double-lambda SFWM source.

    Attributes
    ----------
    alpha : optical depth of the medium (dimensionless).
    b : impurity fraction, the share of atoms acting as bare two-level
        absorbers for the probe (0 <= b <= 1).
    omega_p, omega_c : pump and coupling Rabi frequencies (units of Gamma).
    delta_p, delta_c : pump and coupling one-photon detunings, signed
        (units of Gamma).
    gamma_dec : ground-state decoherence rate (units of Gamma, >= 0).
    gamma_doppler : Doppler e^-1 half-width (units of Gamma).
    gamma_etalon : effective combined etalon width (units of Gamma).
    """

    alpha: float = DEFAULT_ALPHA
    b: float = 0.0
    omega_p: float = DEFAULT_OMEGA_P
    omega_c: float = 10.0
    delta_p: float = ghz_to_gamma(DEFAULT_DELTA_P_GHZ)
    delta_c: float = 0.0
    gamma_dec: float = 0.0
    gamma_doppler: float = DEFAULT_GAMMA_DOPPLER
    gamma_etalon: float = DEFAULT_GAMMA_ETALON

    def __post_init__(self):
        def bad(name, why):
            raise ParameterError.on_field(f"SystemParams.{name}",
                                          getattr(self, name), why)

        for name in ("alpha", "b", "omega_p", "omega_c", "delta_p", "delta_c",
                     "gamma_dec", "gamma_doppler", "gamma_etalon"):
            v = getattr(self, name)
            if not np.isfinite(v):
                bad(name, "must be finite")
        if self.alpha <= 0:
            bad("alpha", "must be positive")
        if not 0.0 <= self.b <= 1.0:
            bad("b", "must lie in [0, 1]")
        # the kernels square gamma_doppler, omega_p and omega_c, and the
        # squares must stay finite
        if not 0.0 < self.gamma_doppler < _HUGE_RADIUS:
            bad("gamma_doppler",
                f"must be positive and below {_HUGE_RADIUS:.0e}")
        if self.gamma_etalon <= 0:
            bad("gamma_etalon", "must be positive")
        if self.gamma_dec < 0:
            bad("gamma_dec", "must be >= 0")
        for name in ("omega_p", "omega_c"):
            if not 0.0 <= getattr(self, name) < _HUGE_RADIUS:
                bad(name, f"must be >= 0 and below {_HUGE_RADIUS:.0e}")

    @classmethod
    def from_lab_units(cls, *, delta_p_ghz=DEFAULT_DELTA_P_GHZ, delta_c_ghz=0.0,
                       **gamma_unit_fields):
        """Build params with detunings given in GHz (f/2pi)."""
        return cls(delta_p=ghz_to_gamma(delta_p_ghz),
                   delta_c=ghz_to_gamma(delta_c_ghz),
                   **gamma_unit_fields)

    def replace(self, **changes) -> "SystemParams":
        """Return a copy with the given fields replaced (re-validated)."""
        return replace(self, **changes)


def coupling_15mw_params(delta_c_ghz=0.0) -> SystemParams:
    """The 15 mW coupling-power operating point of the source.

    Best-fit values b = 0.375, Omega_c = 11.4 Gamma, gamma = 0.013 Gamma
    on top of the apparatus defaults.  Used throughout the tests and
    example scripts as the canonical parameter set.
    """
    return SystemParams.from_lab_units(
        b=0.375, omega_c=11.4, gamma_dec=0.013, delta_c_ghz=delta_c_ghz)


def coupling_30mw_params(delta_c_ghz=0.0) -> SystemParams:
    """The 30 mW coupling-power operating point (b=0.315, Omega_c=16.6)."""
    return SystemParams.from_lab_units(
        b=0.315, omega_c=16.6, gamma_dec=0.010, delta_c_ghz=delta_c_ghz)
