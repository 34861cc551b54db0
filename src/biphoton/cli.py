"""Batch command-line front-end.

Subcommands: ``simulate``, ``sweep``, ``spectrum``, ``analyze``, ``fit``.
Every command is deterministic: identical inputs produce byte-identical
output files (floats are written with shortest round-trip repr).  Exit
statuses: 0 success/partial, 2 usage or config, 3 data, 4 numerical.
Errors print one machine-readable line ``error: CODE detail`` to stderr.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig
from .errors import (BiphotonError, GridOverflowError, ParameterError,
                     ParseError)
from .fitting import (DetuningSeries, FitOptions, Theta, fit_series,
                      format_fit_report)
from .forward import predict
from .ingest import (detected_pair_rate, estimate_background, load_histogram,
                     to_g2)
from .observables import (detected_to_generated, heralding_probability,
                          sbr_from_g2)
from .units import gamma_to_mhz, ghz_to_gamma, tau_to_ns
from .wavepacket import biphoton_spectrum


class CliError(Exception):
    def __init__(self, code, detail, status):
        super().__init__(f"{code} {detail}")
        self.code = code
        self.detail = detail
        self.status = status


def _fmt(x):
    """Shortest round-trip decimal for floats; ints and strings verbatim."""
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def _write_rows(path, header, rows):
    lines = [header]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _decimate(n_rows, cap):
    stride = max(1, -(-n_rows // cap))
    return slice(0, n_rows, stride)


def _observables_rows(entries):
    # entries: (name, value, units, calibrated)
    return [(name, value, units, "true" if calib else "false")
            for name, value, units, calib in entries]


def _load_config(args, required=True):
    if args.config is None:
        if required:
            raise CliError("CONFIG_MISSING", "--config is required", 2)
        return RunConfig()
    cfg = RunConfig.load(args.config, strict=args.strict)
    for warning in cfg.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return cfg


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _wavepacket_window(wp, tau_w):
    """Indices covering the packet: peak out to 1e-6 of the peak, padded,
    and at least +-5 tau_w."""
    peak = int(np.argmax(wp.g2))
    floor = wp.g2[peak] * 1e-6
    lo = peak
    while lo > 0 and wp.g2[lo - 1] > floor:
        lo -= 1
    hi = peak
    while hi < wp.g2.size - 1 and wp.g2[hi + 1] > floor:
        hi += 1
    pad = max(int(0.2 * (hi - lo)), 1)
    need = 5.0 * tau_w if np.isfinite(tau_w) else 0.0
    lo = min(lo - pad, int(np.searchsorted(wp.tau, wp.tau[peak] - need)))
    hi = max(hi + pad, int(np.searchsorted(wp.tau, wp.tau[peak] + need)))
    return max(lo, 0), min(hi, wp.g2.size - 1)


def _run_forward(cfg):
    params = cfg.system_params()
    return predict(params, grid_hint=cfg.grid_hint(),
                   oversample=cfg.oversample())


def cmd_simulate(args):
    cfg = _load_config(args)
    out = _out_dir(args)
    pred = _run_forward(cfg)
    wp = pred.wavepacket

    if pred.rg_arb == 0.0:
        lo, hi = 0, min(wp.g2.size - 1, 8000)
    else:
        lo, hi = _wavepacket_window(wp, pred.tau_w)
    tau_ns = tau_to_ns(wp.tau[lo:hi + 1])
    g2 = wp.g2[lo:hi + 1]
    keep = _decimate(tau_ns.size, 8000)
    _write_rows(out / "wavepacket.csv", "tau_ns,g2_arb",
                zip(tau_ns[keep], g2[keep]))

    _write_spectrum(out, pred)

    entries = [("rg", pred.rg_arb, "arb/s", False),
               ("tau_w", pred.tau_w_ns, "ns", True),
               ("delta_omega", gamma_to_mhz(pred.delta_omega), "MHz", True)]
    _write_rows(out / "observables.csv", "name,value,units,calibrated",
                _observables_rows(entries))
    return 0


def _write_spectrum(out, pred):
    sa = pred.amplitude
    if pred.rg_arb == 0.0:
        delta_mhz = gamma_to_mhz(sa.grid.values)
        keep = _decimate(delta_mhz.size, 4000)
        _write_rows(out / "spectrum.csv", "delta_mhz,intensity_norm",
                    zip(delta_mhz[keep], np.zeros_like(delta_mhz[keep])))
        return
    spec = biphoton_spectrum(sa)
    mask = spec >= 1e-9
    delta_mhz = gamma_to_mhz(sa.grid.values[mask])
    spec = spec[mask]
    keep = _decimate(delta_mhz.size, 4000)
    _write_rows(out / "spectrum.csv", "delta_mhz,intensity_norm",
                zip(delta_mhz[keep], spec[keep]))


def cmd_spectrum(args):
    cfg = _load_config(args)
    out = _out_dir(args)
    pred = _run_forward(cfg)
    _write_spectrum(out, pred)
    entries = [("delta_omega", gamma_to_mhz(pred.delta_omega), "MHz", True)]
    _write_rows(out / "observables.csv", "name,value,units,calibrated",
                _observables_rows(entries))
    return 0


def cmd_sweep(args):
    cfg = _load_config(args)
    out = _out_dir(args)
    detunings = cfg.sweep_detunings()
    params = cfg.system_params()
    hint = cfg.grid_hint()
    oversample = cfg.oversample()

    rows = []
    successes = 0
    for dcg in detunings:
        try:
            pred = predict(params.replace(delta_c=ghz_to_gamma(float(dcg))),
                           grid_hint=hint, oversample=oversample)
            rows.append((float(dcg), pred.rg_arb, pred.tau_w_ns,
                         gamma_to_mhz(pred.delta_omega)))
            successes += 1
        except BiphotonError as exc:  # per-point failure becomes a marker row
            rows.append((float(dcg), "ERROR", "ERROR", "ERROR"))
            print(f"warning: point delta_c={dcg} GHz failed: {exc}",
                  file=sys.stderr)
    _write_rows(out / "sweep.csv", "delta_c_ghz,rg_arb,tau_w_ns,domega_mhz",
                rows)
    if successes == 0:
        raise CliError("SWEEP_ALL_POINTS_FAILED", "no point succeeded", 4)
    return 0


def cmd_analyze(args):
    cfg = _load_config(args, required=False)
    out = _out_dir(args)
    hist_path = args.histogram or cfg.get_str("analyze.histogram")
    if hist_path is None:
        raise CliError("CONFIG_MISSING_KEY", "analyze.histogram", 2)
    try:
        hist = load_histogram(hist_path)
    except ParseError as exc:
        raise CliError("DATA_PARSE", str(exc), 3) from exc
    if not hist.saturation_corrected:
        raise CliError("UNCORRECTED_RATES",
                       "histogram lacks saturation correction; absolute "
                       "rates would be biased", 2)

    window = None
    lo = cfg.get_float("analyze.background_lo_ns")
    hi = cfg.get_float("analyze.background_hi_ns")
    if lo is not None and hi is not None:
        window = (lo, hi)
    background = estimate_background(hist, window=window)
    curve = to_g2(hist, background)
    _write_rows(out / "g2.csv", "tau_ns,g2", zip(curve.tau, curve.g2))

    pair = detected_pair_rate(hist, background)
    if pair.support is None:
        print("warning: NO_WAVEPACKET no coincidence peak above background",
              file=sys.stderr)
    sbr = sbr_from_g2(curve.g2)
    rates = detected_to_generated(pair.rate, hist.chain)
    h_p = (heralding_probability(rates.fiber, hist.singles_signal)
           if rates.fiber <= hist.singles_signal else None)

    entries = [("sbr", sbr, "", True),
               ("r_d", pair.rate, "1/s", True),
               ("rg_fiber", rates.fiber, "1/s", True),
               ("rg_cell", rates.cell, "1/s", True),
               ("background_per_bin", background.mean, "counts", True)]
    if h_p is not None:
        entries.append(("h_p", h_p, "", True))
    else:
        print("warning: INCONSISTENT_RATES pair rate exceeds singles rate; "
              "h_p omitted", file=sys.stderr)
    _write_rows(out / "observables.csv", "name,value,units,calibrated",
                _observables_rows(entries))
    return 0


def cmd_fit(args):
    cfg = _load_config(args)
    out = _out_dir(args)
    cfg.require("fit.series")
    path = Path(cfg.get_str("fit.series"))
    if not path.exists():
        raise CliError("DATA_NOT_FOUND", str(path), 3)
    lines = path.read_text().splitlines()
    header = "delta_c_ghz,rg,rg_err,tau_w_ns,tau_w_err"
    if not lines or lines[0].strip() != header:
        raise CliError("DATA_PARSE", f"series header must be '{header}'", 3)
    try:
        table = np.array([[float(v) for v in line.split(",")]
                          for line in lines[1:] if line.strip()])
    except ValueError:
        raise CliError("DATA_PARSE", "bad number in series file", 3) from None
    if table.ndim != 2 or table.shape[1] != 5:
        raise CliError("DATA_PARSE", "series rows need 5 columns", 3)
    if table.shape[0] < 4:
        raise CliError("SERIES_TOO_SHORT",
                       f"need >= 4 points, got {table.shape[0]}", 2)

    fixed = cfg.system_params(require=False)
    try:
        series = DetuningSeries(
            delta_c_ghz=table[:, 0], rg=table[:, 1], rg_err=table[:, 2],
            tau_w_ns=table[:, 3], tau_w_err=table[:, 4], fixed=fixed,
            label=path.stem)
    except ParameterError as exc:
        raise CliError("DATA_PARSE", str(exc), 3) from exc

    init = None
    init_vals = [cfg.get_float(f"fit.init_{name}")
                 for name in ("b", "omega_c", "gamma_dec", "scale")]
    if all(v is not None for v in init_vals):
        init = Theta(*init_vals)
    options = FitOptions()
    max_iter = cfg.get_int("fit.max_iterations")
    if max_iter is not None:
        options = FitOptions(max_iterations=max_iter)
    freeze = cfg.get_str("fit.freeze")
    if freeze:
        options = FitOptions(max_iterations=options.max_iterations,
                             freeze=tuple(t.strip() for t in freeze.split(",")
                                          if t.strip()))

    result = fit_series(series, init=init, options=options)
    (out / "fit_report.txt").write_text(format_fit_report(result, series))
    rows = [(result.per_point[i, 0], series.rg[i], result.per_point[i, 1],
             series.tau_w_ns[i], result.per_point[i, 2])
            for i in range(series.n_points)]
    _write_rows(out / "fit_curve.csv",
                "delta_c_ghz,rg_meas,rg_pred,tauw_meas,tauw_pred", rows)
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc.code} {exc.detail}", file=sys.stderr)
        return exc.status
    except ConfigError as exc:
        print(f"error: {exc.code} {exc.detail}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"error: DATA_PARSE {exc}", file=sys.stderr)
        return 3
    except GridOverflowError as exc:
        print(f"error: NUMERICAL {exc}", file=sys.stderr)
        return 4
    except ParameterError as exc:
        print(f"error: CONFIG_BAD_VALUE {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
