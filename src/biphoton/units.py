"""Unit conversions between lab units (MHz, GHz, ns) and internal units.

All angular frequencies inside the physics core are expressed in units of
the excited-state decay rate Gamma, and all times in units of 1/Gamma.
Gamma is the unit, so it is 1 in every formula and no parameter field
carries it.
The single boundary constant is Gamma/2pi = 6 MHz; user-facing numbers are
converted exactly here and internal Gamma units never leak into files.
"""

import math

# Gamma/2pi in MHz.  Fixed boundary constant for the Rb D lines used here.
GAMMA_MHZ = 6.0

# Gamma in rad/ns (2pi * 6 MHz expressed per nanosecond).
GAMMA_RAD_PER_NS = 2.0 * math.pi * GAMMA_MHZ * 1e-3


def mhz_to_gamma(f_mhz):
    """Angular frequency from f/2pi in MHz to units of Gamma."""
    return f_mhz / GAMMA_MHZ


def gamma_to_mhz(x):
    """Angular frequency from units of Gamma to f/2pi in MHz."""
    return x * GAMMA_MHZ


def ghz_to_gamma(f_ghz):
    """Angular frequency from f/2pi in GHz to units of Gamma."""
    return f_ghz * 1e3 / GAMMA_MHZ


def tau_to_ns(t):
    """Time from units of 1/Gamma to nanoseconds."""
    return t / GAMMA_RAD_PER_NS
