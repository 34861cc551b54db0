"""Batch command-line front-end.

Subcommands: ``simulate``, ``sweep``, ``spectrum``, ``analyze``, ``fit``.
Every command is deterministic: identical inputs produce byte-identical
output files.  Every CSV goes through ``ingest.write_table``, which holds
the formatting rule (floats as shortest round-trip repr).  Exit
status 0 means success or a partial sweep.  Any package error prints one
machine-readable line ``error: CODE detail`` to stderr and exits with the
status its class carries: 2 for usage, config and output (CONFIG_*,
SERIES_TOO_SHORT, UNCORRECTED_RATES, OUTPUT_UNWRITABLE), 3 for data
(DATA_PARSE, DATA_NOT_FOUND, DATA_UNREADABLE, DATA_BAD_VALUE,
INCONSISTENT_RATES), 4 for numerical failures (NUMERICAL,
SWEEP_ALL_POINTS_FAILED).  A background window set in the config that
``analyze`` cannot use is CONFIG_BAD_VALUE; the default window failing on
the histogram is DATA_BAD_VALUE.  A key group set in part (``grid.*``,
the background window, ``fit.init_*``) is CONFIG_BAD_VALUE, as is any
config value the package refuses; its detail starts with the key and the
value as written (``system.b = 1.5: must lie in [0, 1]``).
"""

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, comma_list, file_path
from .errors import BiphotonError, InconsistentRatesError, ParameterError
from .fitting import (PARAM_NAMES, FitOptions, Theta, check_bounds,
                      fit_series, format_fit_report)
from .forward import detuning_sweep, predict
from .ingest import (detected_pair_rate, estimate_background, load_histogram,
                     load_series, region_above, to_g2, write_table)
from .observables import (detected_to_generated, heralding_probability,
                          sbr_from_g2)
from .units import gamma_to_mhz, ghz_to_gamma, tau_to_ns
from .wavepacket import biphoton_spectrum


def _write(path, write, *args):
    """``write(path, *args)``; a file-system failure is OUTPUT_UNWRITABLE."""
    try:
        write(path, *args)
    except OSError:
        raise ConfigError("OUTPUT_UNWRITABLE", str(path)) from None


def _decimate(n_rows, cap):
    stride = max(1, -(-n_rows // cap))
    return slice(0, n_rows, stride)


def _write_observables(out, entries):
    # entries: (name, value, units, calibrated)
    names, values, units, calibrated = zip(*entries)
    _write(out / "observables.csv", write_table, "name,value,units,calibrated",
           [names, values, units,
            ["true" if calib else "false" for calib in calibrated]])


def _load_config(args, required=True):
    if args.config is None:
        if required:
            raise ConfigError("CONFIG_MISSING", "--config is required")
        return RunConfig()
    cfg = RunConfig.load(args.config, strict=args.strict)
    for warning in cfg.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return cfg


def _out_dir(args):
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError:
        raise ConfigError("OUTPUT_UNWRITABLE", str(out)) from None
    return out


def _wavepacket_window(wp, tau_w):
    """Indices covering the packet: peak out to 1e-6 of the peak, padded,
    and at least +-5 tau_w."""
    peak = int(np.argmax(wp.g2))
    lo, hi = region_above(wp.g2, peak, wp.g2[peak] * 1e-6)
    pad = max(int(0.2 * (hi - lo)), 1)
    need = 5.0 * tau_w if np.isfinite(tau_w) else 0.0
    lo = min(lo - pad, int(np.searchsorted(wp.tau, wp.tau[peak] - need)))
    hi = max(hi + pad, int(np.searchsorted(wp.tau, wp.tau[peak] + need)))
    return max(lo, 0), min(hi, wp.g2.size - 1)


def cmd_simulate(args):
    cfg = _load_config(args)
    out = _out_dir(args)
    pred = predict(cfg.system_params(), grid_hint=cfg.grid_hint())
    wp = pred.wavepacket

    if pred.rg_arb == 0.0:
        lo, hi = 0, min(wp.g2.size - 1, 8000)
    else:
        lo, hi = _wavepacket_window(wp, pred.tau_w)
    tau_ns = tau_to_ns(wp.tau[lo:hi + 1])
    g2 = wp.g2[lo:hi + 1]
    keep = _decimate(tau_ns.size, 8000)
    _write(out / "wavepacket.csv", write_table, "tau_ns,g2_arb",
           [tau_ns[keep], g2[keep]])

    _write_spectrum(out, pred)

    entries = [("rg", pred.rg_arb, "arb/s", False),
               ("tau_w", pred.tau_w_ns, "ns", True),
               ("delta_omega", gamma_to_mhz(pred.delta_omega), "MHz", True)]
    _write_observables(out, entries)
    return 0


def _write_spectrum(out, pred):
    sa = pred.amplitude
    delta, spec = sa.grid.values, np.zeros(sa.grid.n_points)
    if pred.rg_arb != 0.0:
        spec = biphoton_spectrum(sa)
        delta, spec = delta[spec >= 1e-9], spec[spec >= 1e-9]
    delta_mhz = gamma_to_mhz(delta)
    keep = _decimate(delta_mhz.size, 4000)
    _write(out / "spectrum.csv", write_table, "delta_mhz,intensity_norm",
           [delta_mhz[keep], spec[keep]])


def cmd_spectrum(args):
    cfg = _load_config(args)
    out = _out_dir(args)
    pred = predict(cfg.system_params(), grid_hint=cfg.grid_hint())
    _write_spectrum(out, pred)
    _write_observables(
        out, [("delta_omega", gamma_to_mhz(pred.delta_omega), "MHz", True)])
    return 0


def cmd_sweep(args):
    cfg = _load_config(args)
    out = _out_dir(args)
    detunings = cfg.sweep_detunings()
    results = detuning_sweep(cfg.system_params(), ghz_to_gamma(detunings),
                             grid_hint=cfg.grid_hint())
    rows = []
    for dcg, pred in zip(detunings, results):
        if isinstance(pred, BiphotonError):  # a failed point is a marker row
            rows.append(("ERROR", "ERROR", "ERROR"))
            print(f"warning: point delta_c={dcg} GHz failed: {pred}",
                  file=sys.stderr)
        else:
            rows.append((pred.rg_arb, pred.tau_w_ns,
                         gamma_to_mhz(pred.delta_omega)))
    _write(out / "sweep.csv", write_table,
           "delta_c_ghz,rg_arb,tau_w_ns,domega_mhz", [detunings, *zip(*rows)])
    if all(row[0] == "ERROR" for row in rows):
        raise BiphotonError("no point succeeded",
                            code="SWEEP_ALL_POINTS_FAILED")
    return 0


def cmd_analyze(args):
    cfg = _load_config(args, required=False)
    out = _out_dir(args)
    if not args.histogram:
        cfg.require("analyze.histogram")
    hist = load_histogram(args.histogram
                          or cfg.get("analyze.histogram", file_path))
    if not hist.saturation_corrected:
        raise ParameterError("histogram lacks saturation correction; "
                             "absolute rates would be biased",
                             code="UNCORRECTED_RATES")

    window = cfg.get_group({"analyze.background_lo_ns": float,
                            "analyze.background_hi_ns": float})
    background = estimate_background(hist, window=window)
    curve = to_g2(hist, background)
    _write(out / "g2.csv", write_table, "tau_ns,g2", [curve.tau, curve.g2])

    pair = detected_pair_rate(hist, background)
    if pair.support is None:
        print("warning: NO_WAVEPACKET no coincidence peak above background",
              file=sys.stderr)
    sbr = sbr_from_g2(curve.g2)
    rates = detected_to_generated(pair.rate, hist.chain)
    entries = [("sbr", sbr, "", True),
               ("r_d", pair.rate, "1/s", True),
               ("rg_fiber", rates.fiber, "1/s", True),
               ("rg_cell", rates.cell, "1/s", True),
               ("background_per_bin", background.mean, "counts", True)]
    try:
        entries.append(("h_p", heralding_probability(
            rates.fiber, hist.singles_signal), "", True))
    except InconsistentRatesError:
        print("warning: INCONSISTENT_RATES pair rate exceeds singles rate; "
              "h_p omitted", file=sys.stderr)
    _write_observables(out, entries)
    return 0


def cmd_fit(args):
    cfg = _load_config(args)
    out = _out_dir(args)
    cfg.require("fit.series")
    series = load_series(cfg.get("fit.series", file_path),
                         cfg.system_params(require=False))

    init = cfg.get_group({f"fit.init_{name}": float for name in PARAM_NAMES})
    if init is not None:
        init = Theta(*init)
        check_bounds(init, prefix="fit.init_")
    max_iterations = cfg.get("fit.max_iterations", int,
                             FitOptions.max_iterations)
    freeze = tuple(cfg.get("fit.freeze", comma_list(str), ()))
    options = cfg.build(lambda: FitOptions(max_iterations, freeze),
                        {"FitOptions.max_iterations": "fit.max_iterations",
                         "FitOptions.freeze": "fit.freeze"})

    result = fit_series(series, init=init, options=options)
    _write(out / "fit_report.txt", Path.write_text,
           format_fit_report(result, series))
    dc, rg_pred, tw_pred = result.per_point.T
    _write(out / "fit_curve.csv", write_table,
           "delta_c_ghz,rg_meas,rg_pred,tauw_meas,tauw_pred",
           [dc, series.rg, rg_pred, series.tau_w_ns, tw_pred])
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description="Simulation and analysis for double-lambda SFWM "
                    "biphoton sources in Doppler-broadened media")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, needs_hist in (("simulate", cmd_simulate, False),
                                 ("sweep", cmd_sweep, False),
                                 ("spectrum", cmd_spectrum, False),
                                 ("analyze", cmd_analyze, True),
                                 ("fit", cmd_fit, False)):
        p = sub.add_parser(name)
        if needs_hist:
            p.add_argument("histogram", nargs="?", default=None,
                           help="coincidence histogram CSV (with .meta sidecar)")
        p.add_argument("--config", default=None, help="run configuration file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--strict", action="store_true",
                       help="reject unknown config keys")
        p.set_defaults(fn=fn)
    return parser


@functools.cache
def _parser():
    """The parser of this process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except BiphotonError as exc:
        print(f"error: {exc.code} {exc}", file=sys.stderr)
        return exc.status


if __name__ == "__main__":
    sys.exit(main())
