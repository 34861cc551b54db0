"""Line-oriented run configuration: dotted ``key = value`` pairs.

The format is deliberately trivial (diff-friendly, parseable anywhere):
one ``section.key = value`` per line, '#' comments, blank lines ignored.
The lines are read by :func:`~biphoton.ingest.read_pairs`, the reader of
the ``.meta`` sidecar too.  Unknown keys are rejected in strict mode and
warned about otherwise, one warning per line.  Every value is read by
:meth:`RunConfig.get` with the cast its key needs (``float``, ``int``,
:func:`comma_list`, :func:`file_path`); a value the cast refuses is
CONFIG_BAD_VALUE ``<key> = <value>``.  Key groups (the grid, the
background window, fit.init_*) are all or none.
All user-facing frequencies are MHz/GHz and times ns; Rabi frequencies
and atomic widths are in units of Gamma, matching how the source is
characterized.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import BiphotonError, ParameterError
from .ingest import read_pairs
from .params import SystemParams
from .units import ghz_to_gamma, mhz_to_gamma
from .wavepacket import DetuningGrid


class ConfigError(ParameterError):
    """Configuration problem with a machine-readable code."""

    def __init__(self, code, detail):
        super().__init__(detail, code)
        self.detail = detail


KNOWN_KEYS = {
    "system.alpha", "system.b", "system.omega_p", "system.omega_c",
    "system.gamma_dec", "system.delta_p_ghz", "system.delta_c_ghz",
    "system.gamma_doppler", "system.gamma_etalon",
    "grid.delta_max_mhz", "grid.n_points",
    "sweep.delta_c_ghz",
    "fit.series", "fit.init_b", "fit.init_omega_c", "fit.init_gamma_dec",
    "fit.init_scale", "fit.max_iterations", "fit.freeze",
    "analyze.histogram", "analyze.background_lo_ns", "analyze.background_hi_ns",
}


def comma_list(cast):
    """The cast of a comma-separated list: ``cast`` of each non-blank
    entry, stripped."""
    return lambda raw: [cast(tok.strip()) for tok in raw.split(",")
                        if tok.strip()]


def file_path(raw) -> Path:
    """A path to a file; an empty value, which Path would read as the
    working directory, is refused."""
    if not raw:
        raise ValueError("empty path")
    return Path(raw)


# keys that must be present for the physics commands; everything else has
# an apparatus default
REQUIRED_SYSTEM_KEYS = ("system.b", "system.omega_c", "system.gamma_dec")


@dataclass
class RunConfig:
    """Parsed key/value store; :meth:`get` reads a value with its cast."""

    values: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    @classmethod
    def load(cls, path, strict=False) -> "RunConfig":
        cfg = cls()
        for key, value in read_pairs(
                Path(path), lambda detail, missing: ConfigError(
                    "CONFIG_NOT_FOUND" if missing else "CONFIG_UNREADABLE",
                    detail),
                lambda where: ConfigError("CONFIG_BAD_LINE", where)):
            if key not in KNOWN_KEYS:
                if strict:
                    raise ConfigError("CONFIG_UNKNOWN_KEY", key)
                cfg.warnings.append(f"ignoring unknown config key {key!r}")
                continue
            cfg.values[key] = value
        return cfg

    def require(self, *keys):
        for key in keys:
            if key not in self.values:
                raise ConfigError("CONFIG_MISSING_KEY", key)

    def get(self, key, cast=str, default=None):
        """``cast`` of the value of ``key``, or ``default`` when it is not
        set; a value ``cast`` refuses (ValueError) is CONFIG_BAD_VALUE."""
        if key not in self.values:
            return default
        raw = self.values[key]
        try:
            return cast(raw)
        except ValueError:
            raise ConfigError("CONFIG_BAD_VALUE", f"{key} = {raw}") from None

    def get_group(self, casts: dict):
        """Values of a {key: cast} group in order; None if none is set."""
        missing = [key for key in casts if key not in self.values]
        if len(missing) == len(casts):
            return None
        if missing:
            raise ConfigError("CONFIG_BAD_VALUE",
                              f"{', '.join(missing)} missing: "
                              f"set all of {', '.join(casts)} or none")
        return [self.get(key, cast) for key, cast in casts.items()]

    def build(self, make, keys):
        """``make()``, with any package error it raises turned into
        CONFIG_BAD_VALUE.  An error about a field in ``keys`` ({field:
        config key}) names that key and its value as written instead."""
        try:
            return make()
        except BiphotonError as exc:
            key = keys.get(exc.field)
            detail = (f"{key} = {self.values[key]}: {exc.reason}"
                      if key in self.values else str(exc))
            raise ConfigError("CONFIG_BAD_VALUE", detail) from exc

    def system_params(self, require=True) -> SystemParams:
        """SystemParams from the system.* keys (apparatus defaults apply).

        Each key names, after its prefix, a keyword of
        ``SystemParams.from_lab_units``.
        """
        if require:
            self.require(*REQUIRED_SYSTEM_KEYS)
        kwargs = {key.removeprefix("system."): self.get(key, float)
                  for key in self.values if key.startswith("system.")}
        fields = {f"SystemParams.{name.removesuffix('_ghz')}": f"system.{name}"
                  for name in kwargs}
        return self.build(lambda: SystemParams.from_lab_units(**kwargs),
                          fields)

    def grid_hint(self) -> DetuningGrid | None:
        group = self.get_group({"grid.delta_max_mhz": float,
                                "grid.n_points": int})
        if group is None:
            return None
        dmax_mhz, n = group
        dmax = mhz_to_gamma(dmax_mhz)
        return self.build(lambda: DetuningGrid.spanning(dmax, n),
                          {"DetuningGrid.delta_max": "grid.delta_max_mhz",
                           "DetuningGrid.n_points": "grid.n_points"})

    def sweep_detunings(self) -> np.ndarray:
        self.require("sweep.delta_c_ghz")
        vals = np.asarray(self.get("sweep.delta_c_ghz", comma_list(float)))
        if vals.size < 2:
            raise ConfigError("CONFIG_SWEEP_TOO_SHORT",
                              f"need >= 2 detunings, got {vals.size}")
        # finite in GHz is not enough: the sweep runs in units of Gamma
        with np.errstate(over="ignore"):
            finite = np.all(np.isfinite(ghz_to_gamma(vals)))
        if not finite:
            raise ConfigError(
                "CONFIG_BAD_VALUE", f"sweep.delta_c_ghz = "
                f"{self.values['sweep.delta_c_ghz']}: must all be finite")
        return vals
