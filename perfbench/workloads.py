"""The three benchmark workloads: seeded inputs, the timed op, its check.

Each workload builds a list of inputs from the seed (the package only
ever sees the generated inputs), times one op per input and checks every
output.  Its calibration is a fixed piece of work, run between ops, that
reads how fast the host is running (see worker.py).  ``check`` returns None for a correct output and a one-line
reason otherwise; ``digest`` condenses the numeric outputs so a traced
pass can be compared bit for bit with an untraced one.

* ``sweep``: one ``forward.predict`` on the auto grid per op.
* ``fit``: one ``fitting.fit_series`` with default options per op.
* ``analyze``: one in-process ``cli.main(["analyze", ...])`` per op.

Why each workload exists is written down in NOTES.md next to this file.
"""

import contextlib
import csv
import hashlib
import io
import itertools
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from biphoton import cli, fitting, forward, ingest, wavepacket
from biphoton.observables import DetectionChain
from biphoton.params import (SystemParams, coupling_15mw_params,
                             coupling_30mw_params)
from biphoton.units import ghz_to_gamma

# ---------------------------------------------------------------------------
# calibration

# A fixed piece of work that the host's changes of speed slow down as
# much as they slow the workload's own: numpy complex arithmetic and
# FFTs for sweep and fit, Python number formatting and parsing for
# analyze.  The numpy one has two parts: streaming work on 2**17 points
# alone slowed down more than sweep and fit when the host slowed, and a
# Horner series on 2**16 points alone less; their sum followed both
# within about 2 % (coefficient of variation over 8 s periods, against
# about 11 % for the ops' own times).  Each calibration is paired with
# its duration on the reference host, in seconds: a 2-vCPU KVM VM,
# "Intel(R) Xeon(R) Processor" (family 6, model 207), Python 3.11.7,
# numpy 2.4.6, in its usual state.
_CAL_STREAM = np.linspace(0.0, 1.0, 1 << 17) + 1j
_CAL_GRID = np.linspace(-3.0, 3.0, 1 << 16) + 0.5j
_CAL_COEFFS = np.linspace(0.1, 1.0, 24) + 0.3j


def _calibrate_numpy():
    y = np.exp(3.1 * _CAL_STREAM) * np.cos(_CAL_STREAM.real)
    total = np.fft.fft(y).real.sum()
    z = 1.0 / (_CAL_GRID + 2.0j)
    acc = np.zeros_like(z)
    for c in _CAL_COEFFS:
        acc = acc * z + c
    return float(total + np.fft.ifft(acc * np.exp(-_CAL_GRID.real ** 2))
                 .real.sum())


def _calibrate_python():
    text = "".join(f"{0.8 * i!r},{7 * i % 1000}\n" for i in range(4000))
    return sum(int(line.split(",")[1]) for line in text.splitlines())


CAL_NUMPY = (_calibrate_numpy, 0.017)
CAL_PYTHON = (_calibrate_python, 0.006)

# ---------------------------------------------------------------------------
# sweep

# pinned full-pipeline values of the 15 mW point, as in
# tests/test_wavepacket.py::test_full_pipeline_regressions:
# delta_c (GHz) -> (R_g arb, tau_w ns, delta_omega Gamma)
PINNED_15MW = {
    0.0: (3.524736636384084e-05, 47.04681950849404, 1.1353171055468487),
    1.0: (0.00010906379352597714, 131.41749671071227, 0.12434521182031971),
}
# the test's tolerances: rel 1e-9 on R_g, rel 1e-6 on the two widths
PINNED_RTOL = (1e-9, 1e-6, 1e-6)
# time-domain area against the frequency-domain (Parseval) area; the
# measured mismatch is below 1e-13
PARSEVAL_RTOL = 1e-12
# share of each auto-grid size (points) among plain draws from the domain
# of random_valid_params, measured over 20 000 draws.  The auto grid sets
# most of an op's cost.
GRID_SHARES = {2**14: 0.3685, 2**15: 0.2977, 2**16: 0.2476, 2**17: 0.0863}
# draws per grid size in one block of draws: GRID_SHARES scaled to 11
# sets and rounded, {2**14: 4, 2**15: 3, 2**16: 3, 2**17: 1}
BLOCK_COUNTS = {n: round(11 * share) for n, share in GRID_SHARES.items()}
# blocks of draws per run.  A run at --seconds 35 on a 2-vCPU Xeon gets
# through about eight; the rest are there so that a faster machine still
# sees distinct inputs.
SWEEP_BLOCKS = 22
# the domain corner with the widest grid: 2**17 points, widened to 2**18
# at delta_c = 0.  Every run evaluates it, so the peak working set does
# not depend on whether a seeded draw happens to widen.
WIDEST = SystemParams(alpha=800.0, b=0.0, omega_c=20.0, gamma_dec=0.005,
                      gamma_doppler=30.0, gamma_etalon=15.0)


@dataclass(frozen=True)
class SweepInput:
    label: str
    params: SystemParams
    pinned: tuple | None


def _draw_params(rng, n_points):
    """A draw from the domain of the test suite's ``random_valid_params``,
    kept only if its auto grid has ``n_points`` points."""
    while True:
        params = SystemParams(
            alpha=float(rng.uniform(100.0, 800.0)),
            b=float(rng.uniform(0.0, 0.6)),
            omega_c=float(rng.uniform(6.0, 20.0)),
            gamma_dec=float(np.exp(rng.uniform(np.log(0.005),
                                               np.log(0.05)))),
            gamma_doppler=float(rng.uniform(30.0, 80.0)),
            gamma_etalon=float(rng.uniform(4.0, 15.0)))
        if wavepacket.auto_grid(params).n_points == n_points:
            return params


def _random_param_sets(rng, n_blocks, counts):
    """Draws from the domain, stratified by auto-grid size, in blocks.

    Each block holds ``counts[n]`` draws whose auto grid has ``n`` points,
    in seeded order.  With counts in the domain's own proportions, the
    draws follow the domain's distribution, but every block has the same
    grid-size mix, so the mix does not wander from one seed's run to the
    next.
    """
    out = []
    for _ in range(n_blocks):
        block = [_draw_params(rng, n_points)
                 for n_points, count in counts.items() for _ in range(count)]
        out += [(f"draw{len(out) + i}", block[j])
                for i, j in enumerate(rng.permutation(len(block)))]
    return out


def sweep_inputs(seed, size="full"):
    """Fixed parameter sets plus seeded draws, each at seeded detunings.

    Every parameter set is swept over delta_c = 0 (the point that widens
    the grid) and seeded detunings in [-3, 3] GHz, in that order, as
    ``forward.detuning_sweep`` would; the 15 mW set always includes the
    two pinned detunings 0 and 1 GHz.  The fixed sets come first, so
    every run evaluates them; the draws follow in blocks and are more
    than a run gets through, so a run measures distinct inputs rather
    than repeats of a few.
    """
    rng = np.random.default_rng(seed)
    sets = [("15mW", coupling_15mw_params())]
    if size == "full":
        sets += [("30mW", coupling_30mw_params()), ("widest", WIDEST)]
        sets += _random_param_sets(rng, SWEEP_BLOCKS, BLOCK_COUNTS)
        n_detunings = 7
    else:
        sets += _random_param_sets(rng, 1, {2**14: 1})
        n_detunings = 2
    inputs = []
    # the seeded detunings are stratified: one in each equal share of
    # [-3, 3] GHz.  Grids widen mostly within 1 GHz of resonance, so every
    # set widens about as often as the domain's average.
    k = n_detunings - 1
    for label, base in sets:
        offsets = (np.arange(k) + rng.uniform(size=k)) / k
        detunings = [0.0] + [float(x) for x in -3.0 + 6.0 * offsets]
        if label == "15mW":
            detunings[1] = 1.0
        for dc in detunings:
            pinned = PINNED_15MW.get(dc) if label == "15mW" else None
            inputs.append(SweepInput(
                f"{label}@{dc:.4f}GHz",
                base.replace(delta_c=ghz_to_gamma(dc)), pinned))
    return inputs


def sweep_call(inp):
    return forward.predict(inp.params)


def sweep_check(inp, pred):
    values = (pred.rg_arb, pred.tau_w_ns, pred.delta_omega)
    if not all(math.isfinite(v) and v > 0 for v in values):
        return f"non-finite or non-positive observables {values}"
    # trapezoid rule for the integral of |A|^2 over the uniform grid,
    # written without full-size temporaries
    amp = pred.amplitude.amplitude
    ends = abs(amp[0]) ** 2 + abs(amp[-1]) ** 2
    area = (pred.amplitude.grid.spacing * (np.vdot(amp, amp).real - ends / 2)
            / (2.0 * np.pi))
    if abs(pred.rg_arb - area) > PARSEVAL_RTOL * area:
        return f"R_g {pred.rg_arb!r} misses the Parseval area {area!r}"
    if inp.pinned is not None:
        for name, got, want, rtol in zip(("R_g", "tau_w", "delta_omega"),
                                         values, inp.pinned, PINNED_RTOL):
            if abs(got - want) > rtol * abs(want):
                return f"{name} {got!r} differs from pinned {want!r}"
    return None


def sweep_digest(inp, pred):
    h = hashlib.sha256(repr((pred.rg_arb, pred.tau_w, pred.delta_omega,
                             pred.amplitude.grid)).encode())
    h.update(pred.amplitude.amplitude.tobytes())
    h.update(pred.wavepacket.g2.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# fit

THETA_15MW = fitting.Theta(b=0.375, omega_c=11.4, gamma_dec=0.013, scale=2.0e9)
# the detunings of tests/test_fitting.py
FIT_DETUNINGS_GHZ = (0.2, 0.6, 1.0, 1.5, 2.2)
FIT_NOISE = 0.02
# the one pass of a run: two noise-free series, then a noisy one
FIT_PATTERN = ("clean", "clean", "noisy")
# recovery tolerances of tests/test_fitting.py::test_recovery_from_nearby_init
# (absolute on b, relative on the rest)
RECOVERY_TOL = (0.02, 0.02, 0.10, 0.02)


@dataclass(frozen=True)
class FitInput:
    label: str
    series: fitting.DetuningSeries
    init: fitting.Theta
    chi2_at_theta: float | None     # None for a noise-free series


def fit_inputs(seed, size="full"):
    """Series at the 15 mW theta with a seeded init about 10 % off it."""
    rng = np.random.default_rng(seed)
    n = len(FIT_PATTERN) if size == "full" else 1
    clean = fitting.synthesize_series(THETA_15MW, FIT_DETUNINGS_GHZ,
                                      noise=0.0, seed=0)
    inputs = []
    for i in range(n):
        kind = FIT_PATTERN[i % len(FIT_PATTERN)]
        series, chi2 = clean, None
        if kind == "noisy":
            series = fitting.synthesize_series(
                THETA_15MW, FIT_DETUNINGS_GHZ, noise=FIT_NOISE,
                seed=int(rng.integers(2**31)))
            chi2 = math.fsum(float(v) ** 2 for v in
                             fitting.residuals(THETA_15MW, series))
        offset = rng.choice([-1.0, 1.0], 4) * rng.uniform(0.08, 0.12, 4)
        init = fitting.Theta(*(np.asarray(THETA_15MW) * (1.0 + offset)))
        inputs.append(FitInput(kind, series, init, chi2))
    return inputs


def fit_call(inp):
    return fitting.fit_series(inp.series, init=inp.init)


def fit_check(inp, result):
    if inp.chi2_at_theta is not None:
        if not result.chi2 <= inp.chi2_at_theta:
            return (f"chi2 {result.chi2!r} above its value "
                    f"{inp.chi2_at_theta!r} at the generating theta")
        return None
    if not result.converged:
        return "noise-free fit did not converge"
    got, want = np.asarray(result.theta), np.asarray(THETA_15MW)
    err = np.abs(got - want)
    err[1:] /= want[1:]
    if np.any(err >= RECOVERY_TOL):
        return f"theta {tuple(got)} not recovered"
    return None


def fit_digest(inp, result):
    h = hashlib.sha256(repr((tuple(result.theta), tuple(result.theta_err),
                             result.chi2, result.converged,
                             result.iterations)).encode())
    h.update(result.per_point.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# analyze

HIST_BINS = (2048, 8192, 32768)
# the histograms with a peak in class k have sizes evenly spaced on a log
# scale between HIST_BINS[k] / sqrt(2) and HIST_BINS[k] * sqrt(2) bins, in
# seeded order; a flat one has HIST_BINS[k] bins exactly.  With one size
# per class, the median op is one of eight alike 8192-bin ops, and it
# jumps by the full speed ratio when the host switches between its fast
# and slow states; spread-out sizes let it move smoothly.  Fixed sizes
# keep the seed from moving it.
HIST_SPREAD = 2.0
CHAIN = DetectionChain(d_s=0.13, d_p=0.094, fiber_factor=1.9)
# (has a peak, passes --config); each histogram size gets these twice
ANALYZE_VARIANTS = ((True, False), (True, True), (False, True), (True, False))
# explicit background window of the --config runs, as shares of the tau range
CONFIG_WINDOW = (0.65, 1.0)
# r_d may miss d_s d_p R by this many Poisson standard deviations
RATE_NSIGMA = 6.0


@dataclass(frozen=True)
class AnalyzeInput:
    label: str
    argv: tuple                # without --out
    out: Path                  # the op's --out directories go under this
    expected_rate: float       # detected pairs per second
    rate_tol: float


# every analyze op writes into a directory of its own, which is deleted
# after the op's check.  Rewriting the same files op after op truncates
# them, and ext4 then starts writing them back to disk when they are
# closed; those waits come from the disk, not from the program.  They
# took 1-3 % of the op time, and up to 137 ms in one op.
_OP_NUMBER = itertools.count()


def analyze_inputs(seed, size, workdir):
    """Synthetic histograms (and some configs) written under ``workdir``.

    Within each size class the pair rates (log-uniform in [5e4, 5e5] /s)
    and backgrounds (uniform in [10, 60] counts per bin) are
    Latin-hypercube stratified, so every run covers their whole range.
    The sizes are set by HIST_SPREAD.
    """
    rng = np.random.default_rng(seed)
    workdir = Path(workdir)
    sizes, variants = HIST_BINS, ANALYZE_VARIANTS * 2
    if size != "full":
        sizes, variants = HIST_BINS[:1], ANALYZE_VARIANTS
    inputs = []
    for nominal_bins in sizes:
        k = len(variants)
        rate_u, background_u = ((rng.permutation(k) + rng.uniform(size=k)) / k
                                for _ in range(2))
        n_peaks = sum(peak for peak, _ in variants)
        size_u = iter((rng.permutation(n_peaks) + 0.5) / n_peaks)
        for (peak, with_config), ru, bu in zip(variants, rate_u,
                                               background_u):
            name = f"h{len(inputs):02d}"
            n_bins = nominal_bins
            if peak:
                n_bins = round(nominal_bins
                               * HIST_SPREAD ** (next(size_u) - 0.5))
            pair_rate = float(5e4 * 10.0 ** ru) if peak else 0.0
            background = float(10.0 + 50.0 * bu)
            hist = ingest.make_synthetic_histogram(
                pair_rate, background, CHAIN, n_bins=n_bins,
                seed=int(rng.integers(2**31)),
                singles_signal=4.0 * max(pair_rate, 1e5),
                singles_probe=5.0 * max(pair_rate, 1e5))
            path = workdir / f"{name}.csv"
            ingest.save_histogram(hist, path)
            argv = ["analyze", str(path)]
            if with_config:
                span = float(hist.bin_start[-1] + hist.bin_width)
                cfg = workdir / f"{name}.cfg"
                cfg.write_text(
                    f"analyze.background_lo_ns = {CONFIG_WINDOW[0] * span!r}\n"
                    f"analyze.background_hi_ns = {CONFIG_WINDOW[1] * span!r}\n")
                argv += ["--config", str(cfg)]
            detected = pair_rate * CHAIN.d_s * CHAIN.d_p * hist.accumulation
            # Poisson spread of the pairs plus the background under a
            # support of at most an eighth of the histogram
            sigma = math.sqrt(detected + background * n_bins / 8.0)
            inputs.append(AnalyzeInput(
                f"{n_bins}{'' if peak else '-flat'}"
                f"{'-config' if with_config else ''}",
                tuple(argv), workdir / name,
                detected / hist.accumulation,
                RATE_NSIGMA * sigma / hist.accumulation))
    return inputs


def analyze_call(inp):
    out = inp.out / str(next(_OP_NUMBER))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            status = cli.main([*inp.argv, "--out", str(out)])
        except SystemExit as exc:       # argparse rejects its arguments
            status = exc.code
    return status, err.getvalue(), out


def analyze_check(inp, output):
    status, stderr, out = output
    if status != 0:
        return f"exit status {status}: {stderr.strip()}"
    if any(line.startswith("error:") for line in stderr.splitlines()):
        return f"error line: {stderr.strip()}"
    try:
        with open(out / "observables.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        values = {row["name"]: float(row["value"]) for row in rows}
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return f"observables.csv does not parse: {exc}"
    r_d = values.get("r_d")
    if r_d is None:
        return "observables.csv has no r_d row"
    if abs(r_d - inp.expected_rate) > inp.rate_tol:
        return (f"r_d {r_d!r} misses {inp.expected_rate!r} "
                f"by more than {inp.rate_tol!r}")
    return None


def analyze_digest(inp, output):
    status, _, out = output
    h = hashlib.sha256(repr(status).encode())
    for name in ("g2.csv", "observables.csv"):
        h.update((out / name).read_bytes())
    return h.hexdigest()


def analyze_release(inp, output):
    shutil.rmtree(output[2], ignore_errors=True)


# a traced sweep pass: the 21 ops of the fixed sets and the 154 of the
# first two blocks of draws
SWEEP_TRACE_OPS = 21 + 2 * sum(BLOCK_COUNTS.values()) * 7


def _keep(inp, output):
    """Nothing to free: the output is garbage once dropped."""


def _fit_trace_inputs(inputs):
    """One noise-free and one noisy fit (the only fit of a tiny run)."""
    return inputs[1:3] or inputs


@dataclass(frozen=True)
class Workload:
    """How a workload builds its inputs, runs one op and judges it."""

    build: object         # (seed, size, workdir) -> list of inputs
    call: object          # input -> output; the only timed part
    check: object         # (input, output) -> None or why it is wrong
    digest: object        # (input, output) -> hex digest of numeric outputs
    trace_inputs: object  # inputs -> the inputs of one traced pass
    release: object       # (input, output) -> None; frees what an op left
    # (function, its duration in seconds on the reference host)
    calibration: tuple
    # where a timed run stops: "op", at the first op boundary after
    # --seconds (the inputs are more than a run gets through); "pass", at
    # the first end of a pass over the inputs after --seconds; "once",
    # after exactly one pass, whatever --seconds, so that a faster program
    # is measured on the same ops and not on more of them
    stop: str


WORKLOADS = {
    "sweep": Workload(lambda seed, size, workdir: sweep_inputs(seed, size),
                      sweep_call, sweep_check, sweep_digest,
                      lambda inputs: inputs[:SWEEP_TRACE_OPS],
                      _keep, CAL_NUMPY, stop="op"),
    "fit": Workload(lambda seed, size, workdir: fit_inputs(seed, size),
                    fit_call, fit_check, fit_digest, _fit_trace_inputs,
                    _keep, CAL_NUMPY, stop="once"),
    "analyze": Workload(analyze_inputs, analyze_call, analyze_check,
                        analyze_digest, lambda inputs: inputs,
                        analyze_release, CAL_PYTHON, stop="pass"),
}
