"""Span tracing of the biphoton layers, installed from outside the package.

The package binds its cross-module calls with ``from .x import f``, so a
caller looks ``f`` up in its *own* module globals.  ``Tracer.install``
therefore replaces every module global of every loaded ``biphoton``
module that names a traced function with one shared wrapper, and
``uninstall`` puts the originals back.  Nothing under ``src/`` changes.

Each wrapper records a span (name, start, end, parent, op) in memory;
spans are written out only when the run ends.  A span's self time is its
duration minus the time its child spans cover (calls are strictly nested
on one thread, so the children never overlap).
"""

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (defining module, function) for every traced public function; the span
# name is "<module suffix>.<function>"
TRACED = (
    ("biphoton.faddeeva", "gaussian_pole_integral"),
    ("biphoton.faddeeva", "faddeeva_w"),
    ("biphoton.kernels", "rho_m_bar"),
    ("biphoton.kernels", "rho_c_bar"),
    ("biphoton.kernels", "kappa_bar"),
    ("biphoton.kernels", "complex_sinc"),
    ("biphoton.kernels", "etalon_response"),
    ("biphoton.kernels", "doppler_average"),
    ("biphoton.wavepacket", "amplitude_at"),
    ("biphoton.wavepacket", "sample_spectral_amplitude"),
    ("biphoton.wavepacket", "wave_packet"),
    ("biphoton.wavepacket", "biphoton_spectrum"),
    ("biphoton.observables", "fwhm"),
    ("biphoton.observables", "generation_rate"),
    ("biphoton.observables", "sbr_from_g2"),
    ("biphoton.observables", "detected_to_generated"),
    ("biphoton.observables", "heralding_probability"),
    ("biphoton.forward", "predict"),
    ("biphoton.fitting", "fit_series"),
    ("biphoton.ingest", "load_histogram"),
    ("biphoton.ingest", "estimate_background"),
    ("biphoton.ingest", "to_g2"),
    ("biphoton.ingest", "detected_pair_rate"),
    ("biphoton.config", "RunConfig.load"),
    ("biphoton.cli", "main"),
)

KERNELS = ("rho_m_bar", "rho_c_bar", "kappa_bar", "complex_sinc",
           "etalon_response", "doppler_average")
MEASURED = ("sbr_from_g2", "detected_to_generated", "heralding_probability")

# per-layer metric name -> unit, in the order they are reported
LAYER_UNITS = {
    "faddeeva.points": "count",
    "faddeeva.calls": "count",
    "faddeeva.self_s": "s",
    "faddeeva.ns_per_point": "ns",
    "kernels.rho_m_bar.self_s": "s",
    "kernels.rho_c_bar.self_s": "s",
    "kernels.kappa_bar.self_s": "s",
    "kernels.complex_sinc.self_s": "s",
    "kernels.etalon_response.self_s": "s",
    "kernels.calls": "count",
    "kernels.doppler_average.calls": "count",
    "wavepacket.amplitude_at.calls": "count",
    "wavepacket.amplitude_at.self_s": "s",
    "wavepacket.amplitude_points": "count",
    "wavepacket.widenings": "count",
    "wavepacket.useful_points_ratio": "ratio",
    "wavepacket.wave_packet.self_s": "s",
    "wavepacket.fft_points": "count",
    "wavepacket.biphoton_spectrum.self_s": "s",
    "observables.fwhm.calls": "count",
    "observables.fwhm.self_s": "s",
    "observables.generation_rate.self_s": "s",
    "observables.measured.self_s": "s",
    "forward.predict.calls": "count",
    "forward.predict.self_s": "s",
    "fitting.fit_series.self_s": "s",
    "fitting.iterations_per_fit": "count",
    "fitting.predict_per_fit": "count",
    "fitting.predict_per_iteration": "count",
    "fitting.budget_exhausted_ratio": "ratio",
    "ingest.load_histogram.self_s": "s",
    "ingest.bytes_read": "B",
    "ingest.estimate_background.self_s": "s",
    "ingest.to_g2.self_s": "s",
    "ingest.detected_pair_rate.self_s": "s",
    "config.load.self_s": "s",
    "cli.main.self_s": "s",
    "cli.bytes_written": "B",
}


def _count_points(counts, args, kwargs, result):
    counts["faddeeva.points"] += int(np.size(args[0]))


def _count_amplitude(counts, args, kwargs, result):
    counts["wavepacket.amplitude_points"] += int(np.size(args[0]))


def _count_accepted(counts, args, kwargs, result):
    counts["wavepacket.accepted_points"] += result.grid.n_points


def _count_fft(counts, args, kwargs, result):
    counts["wavepacket.fft_points"] += int(result.tau.size)


def _count_fit(counts, args, kwargs, result):
    options = kwargs.get("options", args[2] if len(args) > 2 else
                         sys.modules["biphoton.fitting"].FitOptions())
    counts["fitting.fits"] += 1
    counts["fitting.iterations"] += result.iterations
    if not result.converged and result.iterations >= options.max_iterations:
        counts["fitting.budget_exhausted"] += 1


def _count_read(counts, args, kwargs, result):
    path = Path(args[0])
    meta = sys.modules["biphoton.ingest"].meta_path_for(path)
    counts["ingest.bytes_read"] += path.stat().st_size + meta.stat().st_size


def _count_written(counts, args, kwargs, result):
    argv = list(args[0])     # the benchmark always passes --out
    out = Path(argv[argv.index("--out") + 1])
    counts["cli.bytes_written"] += sum(
        p.stat().st_size for p in out.iterdir() if p.is_file())


COUNTERS = {
    "faddeeva.gaussian_pole_integral": _count_points,
    "faddeeva.faddeeva_w": _count_points,
    "wavepacket.amplitude_at": _count_amplitude,
    "wavepacket.sample_spectral_amplitude": _count_accepted,
    "wavepacket.wave_packet": _count_fft,
    "fitting.fit_series": _count_fit,
    "ingest.load_histogram": _count_read,
    "cli.main": _count_written,
}


class Tracer:
    """In-memory span recorder that wraps the traced biphoton functions."""

    def __init__(self):
        self.spans = []            # (name, start, end, parent index, op)
        self.counts = defaultdict(int)
        self.op = -1
        self._stack = []
        self._undo = []

    # -- recording -------------------------------------------------------
    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        name, start, _, parent, op = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent, op)

    def run_op(self, op_id, fn, *args):
        """Call ``fn(*args)`` inside a root span named ``op``."""
        self.op = op_id
        idx = self._open("op")
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    # -- installation ----------------------------------------------------
    def install(self):
        """Wrap every module global that names a traced function."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "biphoton" or n.startswith("biphoton.")]
        for modname, attr in TRACED:
            name = f"{modname.rsplit('.', 1)[1]}.{attr.rsplit('.', 1)[-1]}"
            if "." in attr:
                owner_name, meth = attr.split(".")
                owner = getattr(sys.modules[modname], owner_name)
                original = vars(owner)[meth]
                setattr(owner, meth,
                        classmethod(self._wrap(name, original.__func__)))
                self._undo.append((owner, meth, original))
                continue
            fn = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, fn))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- analysis --------------------------------------------------------
    def self_times(self):
        """Per-span self time: duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c
                for (_, start, end, _, _), c in zip(self.spans, child)]

    def layer_metrics(self):
        """Every per-layer metric of LAYER_UNITS as a plain number."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        predicts_in_fits = 0
        fit_spans = {i for i, s in enumerate(self.spans)
                     if s[0] == "fitting.fit_series"}
        for i, (span, own) in enumerate(zip(self.spans, self.self_times())):
            name = span[0]
            calls[name] += 1
            self_s[name] += own
            if name == "forward.predict" and self._has_ancestor(i, fit_spans):
                predicts_in_fits += 1

        c = self.counts
        fadd = ("faddeeva.gaussian_pole_integral", "faddeeva.faddeeva_w")
        fadd_s = sum(self_s[n] for n in fadd)
        fits = c["fitting.fits"]
        iters = c["fitting.iterations"]
        evaluated = c["wavepacket.amplitude_points"]
        m = {
            "faddeeva.points": c["faddeeva.points"],
            "faddeeva.calls": sum(calls[n] for n in fadd),
            "faddeeva.self_s": fadd_s,
            "faddeeva.ns_per_point": (1e9 * fadd_s / c["faddeeva.points"]
                                      if c["faddeeva.points"] else 0.0),
        }
        for k in KERNELS[:5]:
            m[f"kernels.{k}.self_s"] = self_s[f"kernels.{k}"]
        m["kernels.calls"] = sum(calls[f"kernels.{k}"] for k in KERNELS)
        m["kernels.doppler_average.calls"] = calls["kernels.doppler_average"]
        m.update({
            "wavepacket.amplitude_at.calls": calls["wavepacket.amplitude_at"],
            "wavepacket.amplitude_at.self_s": self_s["wavepacket.amplitude_at"],
            "wavepacket.amplitude_points": evaluated,
            "wavepacket.widenings": (
                calls["wavepacket.amplitude_at"]
                - calls["wavepacket.sample_spectral_amplitude"]),
            "wavepacket.useful_points_ratio": (
                c["wavepacket.accepted_points"] / evaluated if evaluated
                else 0.0),
            "wavepacket.wave_packet.self_s": self_s["wavepacket.wave_packet"],
            "wavepacket.fft_points": c["wavepacket.fft_points"],
            "wavepacket.biphoton_spectrum.self_s":
                self_s["wavepacket.biphoton_spectrum"],
            "observables.fwhm.calls": calls["observables.fwhm"],
            "observables.fwhm.self_s": self_s["observables.fwhm"],
            "observables.generation_rate.self_s":
                self_s["observables.generation_rate"],
            "observables.measured.self_s": sum(
                self_s[f"observables.{k}"] for k in MEASURED),
            "forward.predict.calls": calls["forward.predict"],
            "forward.predict.self_s": self_s["forward.predict"],
            "fitting.fit_series.self_s": self_s["fitting.fit_series"],
            "fitting.iterations_per_fit": iters / fits if fits else 0.0,
            "fitting.predict_per_fit": predicts_in_fits / fits if fits else 0.0,
            "fitting.predict_per_iteration": (predicts_in_fits / iters
                                              if iters else 0.0),
            "fitting.budget_exhausted_ratio": (
                c["fitting.budget_exhausted"] / fits if fits else 0.0),
            "ingest.load_histogram.self_s": self_s["ingest.load_histogram"],
            "ingest.bytes_read": c["ingest.bytes_read"],
            "ingest.estimate_background.self_s":
                self_s["ingest.estimate_background"],
            "ingest.to_g2.self_s": self_s["ingest.to_g2"],
            "ingest.detected_pair_rate.self_s":
                self_s["ingest.detected_pair_rate"],
            "config.load.self_s": self_s["config.load"],
            "cli.main.self_s": self_s["cli.main"],
            "cli.bytes_written": c["cli.bytes_written"],
        })
        return m

    def _has_ancestor(self, idx, targets):
        parent = self.spans[idx][3]
        while parent >= 0:
            if parent in targets:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path):
        """Write the spans as JSON lines (times relative to the first span)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent,
                                     "op": op}) + "\n")
