"""Coincidence-histogram loading, normalization, and rate extraction.

File format: a histogram CSV with header ``tau_ns,counts`` (one row per
bin, LF endings, '.' decimal separator) plus a sidecar metadata file with
the same basename and a ``.meta`` suffix holding line-oriented
``key = value`` pairs.  Required metadata keys: bin_width_ns,
accumulation_s, singles_signal_per_s, singles_probe_per_s, d_s, d_p,
fiber_factor, saturation_corrected.  All numbers are decimal text; no
binary formats, so data files stay auditable.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParameterError, ParseError
from .observables import DetectionChain

REQUIRED_META_KEYS = (
    "bin_width_ns", "accumulation_s", "singles_signal_per_s",
    "singles_probe_per_s", "d_s", "d_p", "fiber_factor",
    "saturation_corrected",
)

# moving-average window (bins) used before peak/support detection
SMOOTH_BINS = 5
# default background window: the trailing quarter of the tau range
DEFAULT_BACKGROUND_FRACTION = 0.25
MIN_BACKGROUND_BINS = 50
# support threshold: g2 > 1 + SUPPORT_NSIGMA * (relative background error)
SUPPORT_NSIGMA = 3.0


@dataclass(frozen=True)
class CoincidenceHistogram:
    """Time-binned coincidence counts plus acquisition metadata."""

    bin_start: np.ndarray          # ns
    counts: np.ndarray             # per bin
    bin_width: float               # ns
    accumulation: float            # s
    singles_signal: float          # counts/s
    singles_probe: float           # counts/s
    chain: DetectionChain
    saturation_corrected: bool

    def __post_init__(self):
        if self.bin_start.ndim != 1 or self.bin_start.shape != self.counts.shape:
            raise ParameterError("bin_start and counts must match 1-d shapes")
        if not self.bin_width > 0:
            raise ParameterError("bin_width must be positive")
        if not self.accumulation > 0:
            raise ParameterError("accumulation must be positive")
        if np.any(self.counts < 0):
            raise ParameterError("counts must be non-negative")
        steps = np.diff(self.bin_start)
        if steps.size and not np.allclose(steps, self.bin_width,
                                          rtol=1e-9, atol=1e-9):
            raise ParameterError("bins are not uniform at the stated width")

    @property
    def n_bins(self) -> int:
        return int(self.counts.size)


@dataclass(frozen=True)
class G2Curve:
    """Background-normalized cross-correlation versus delay time."""

    tau: np.ndarray                    # ns
    g2: np.ndarray
    background_counts_per_bin: float

    def __post_init__(self):
        if not self.background_counts_per_bin > 0:
            raise ParameterError("background_counts_per_bin must be positive")


@dataclass(frozen=True)
class BackgroundEstimate:
    mean: float
    stderr: float
    n_bins: int


def _parse_meta(path: Path) -> dict:
    meta = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError("metadata line is not 'key = value'",
                             context=f"{path.name}:{lineno}")
        key, _, value = stripped.partition("=")
        meta[key.strip()] = value.strip()
    missing = [k for k in REQUIRED_META_KEYS if k not in meta]
    if missing:
        raise ParseError(f"missing metadata keys: {', '.join(missing)}",
                         context=path.name)
    return meta


def _parse_bool(raw, where):
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    raise ParseError(f"expected true/false, got {raw!r}", context=where)


def meta_path_for(path) -> Path:
    return Path(path).with_suffix(".meta")


def load_histogram(path) -> CoincidenceHistogram:
    """Load a histogram CSV and its ``.meta`` sidecar, fully validated."""
    path = Path(path)
    if not path.exists():
        raise ParseError("histogram file not found", context=str(path))
    lines = path.read_text().splitlines()
    if not lines or lines[0].strip() != "tau_ns,counts":
        raise ParseError("histogram must start with header 'tau_ns,counts'",
                         context=f"{path.name}:1")
    taus, counts = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError("expected two comma-separated fields",
                             context=f"{path.name}:{lineno}")
        try:
            taus.append(float(parts[0]))
            counts.append(float(parts[1]))
        except ValueError:
            raise ParseError(f"bad number in row {line!r}",
                             context=f"{path.name}:{lineno}") from None
    if not taus:
        raise ParseError("histogram has no data rows", context=path.name)

    meta_file = meta_path_for(path)
    if not meta_file.exists():
        raise ParseError("missing sidecar metadata file",
                         context=str(meta_file))
    meta = _parse_meta(meta_file)

    def num(key):
        try:
            return float(meta[key])
        except ValueError:
            raise ParseError(f"metadata key {key} is not a number",
                             context=meta_file.name) from None

    counts_arr = np.asarray(counts)
    if np.any(counts_arr < 0) or np.any(counts_arr != np.floor(counts_arr)):
        raise ParseError("counts must be non-negative integers",
                         context=path.name)
    try:
        return CoincidenceHistogram(
            bin_start=np.asarray(taus, dtype=float),
            counts=counts_arr.astype(np.int64),
            bin_width=num("bin_width_ns"),
            accumulation=num("accumulation_s"),
            singles_signal=num("singles_signal_per_s"),
            singles_probe=num("singles_probe_per_s"),
            chain=DetectionChain(d_s=num("d_s"), d_p=num("d_p"),
                                 fiber_factor=num("fiber_factor")),
            saturation_corrected=_parse_bool(meta["saturation_corrected"],
                                             meta_file.name),
        )
    except ParameterError as exc:
        raise ParseError(str(exc), context=path.name) from exc


def save_histogram(h: CoincidenceHistogram, path) -> None:
    """Write a histogram + sidecar; load_histogram round-trips bit-exactly."""
    path = Path(path)
    rows = ["tau_ns,counts"]
    rows += [f"{float(t)!r},{int(c)}" for t, c in zip(h.bin_start, h.counts)]
    path.write_text("\n".join(rows) + "\n")
    meta = "\n".join([
        f"bin_width_ns = {float(h.bin_width)!r}",
        f"accumulation_s = {float(h.accumulation)!r}",
        f"singles_signal_per_s = {float(h.singles_signal)!r}",
        f"singles_probe_per_s = {float(h.singles_probe)!r}",
        f"d_s = {float(h.chain.d_s)!r}",
        f"d_p = {float(h.chain.d_p)!r}",
        f"fiber_factor = {float(h.chain.fiber_factor)!r}",
        f"saturation_corrected = {'true' if h.saturation_corrected else 'false'}",
    ])
    meta_path_for(path).write_text(meta + "\n")


def _smoothed(values, width=SMOOTH_BINS):
    kernel = np.ones(width) / width
    return np.convolve(np.asarray(values, dtype=float), kernel, mode="same")


def _peak_region(counts):
    """Contiguous bin range around a significant smoothed peak, or None.

    A peak counts as significant when the smoothed maximum clears the
    median by 5 standard errors of the smoothed flat-background estimate;
    the region extends while the smoothed excess stays above 20% of the
    peak excess.  Invented heuristic, documented here and configurable
    only through the background window choice.
    """
    smooth = _smoothed(counts)
    median = float(np.median(smooth))
    peak_idx = int(np.argmax(smooth))
    excess = smooth[peak_idx] - median
    sigma = math.sqrt(max(median, 1.0) / SMOOTH_BINS)
    if excess <= 5.0 * sigma:
        return None
    thresh = median + 0.2 * excess
    lo = peak_idx
    while lo > 0 and smooth[lo - 1] > thresh:
        lo -= 1
    hi = peak_idx
    while hi < smooth.size - 1 and smooth[hi + 1] > thresh:
        hi += 1
    return lo, hi


def default_background_window(h: CoincidenceHistogram) -> tuple[float, float]:
    """Trailing 25% of the tau range."""
    t0 = float(h.bin_start[0])
    t1 = float(h.bin_start[-1])
    return (t1 - (t1 - t0) * DEFAULT_BACKGROUND_FRACTION, t1 + h.bin_width)


def estimate_background(h: CoincidenceHistogram,
                        window: tuple[float, float] | None = None
                        ) -> BackgroundEstimate:
    """Mean counts per bin (and standard error) over a peak-free window.

    ``window`` is a (tau_lo, tau_hi) interval in ns selecting bins by
    their start time; it defaults to the trailing quarter of the range.
    The window must hold at least 50 bins and must not overlap the
    auto-detected wave-packet peak.
    """
    if window is None:
        window = default_background_window(h)
    lo, hi = window
    mask = (h.bin_start >= lo) & (h.bin_start < hi)
    n = int(np.count_nonzero(mask))
    if n < MIN_BACKGROUND_BINS:
        raise ParameterError(
            f"background window holds {n} bins; need >= {MIN_BACKGROUND_BINS}")
    region = _peak_region(h.counts)
    if region is not None:
        sel = np.flatnonzero(mask)
        if sel.min() <= region[1] and sel.max() >= region[0]:
            raise ParameterError(
                "background window overlaps the detected wave packet "
                f"(bins {region[0]}..{region[1]})")
    vals = h.counts[mask].astype(float)
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    if mean <= 0:
        raise ParameterError("background mean must be positive")
    return BackgroundEstimate(mean=mean, stderr=stderr, n_bins=n)


def to_g2(h: CoincidenceHistogram, background: BackgroundEstimate) -> G2Curve:
    """Normalize counts bin-wise to the background level (g2 = 1 there)."""
    if not background.mean > 0:
        raise ParameterError("background must be positive")
    return G2Curve(tau=h.bin_start.copy(),
                   g2=h.counts / background.mean,
                   background_counts_per_bin=background.mean)


@dataclass(frozen=True)
class PairRateResult:
    """Detected pair rate with the support window used (None if no peak)."""

    rate: float                         # detected pairs per second
    support: tuple[int, int] | None     # inclusive bin index range
    threshold: float                    # g2 level defining the support


def detected_pair_rate(h: CoincidenceHistogram,
                       background: BackgroundEstimate) -> PairRateResult:
    """Background-subtracted coincidence area over the support window.

    The support is the contiguous region around the smoothed-g2 peak where
    smoothed g2 exceeds 1 + 3 sigma_rel (sigma_rel = background standard
    error over its mean).  Subtraction is plain (not clamped at zero) so
    bin noise averages out of the area.  Without any bin above threshold
    the rate is exactly 0 and ``support`` is None.
    """
    g2 = h.counts / background.mean
    smooth = _smoothed(g2)
    sigma_rel = background.stderr / background.mean
    threshold = 1.0 + SUPPORT_NSIGMA * sigma_rel
    peak_idx = int(np.argmax(smooth))
    if smooth[peak_idx] <= threshold:
        return PairRateResult(rate=0.0, support=None, threshold=threshold)
    lo = peak_idx
    while lo > 0 and smooth[lo - 1] > threshold:
        lo -= 1
    hi = peak_idx
    while hi < smooth.size - 1 and smooth[hi + 1] > threshold:
        hi += 1
    excess = h.counts[lo:hi + 1].astype(float) - background.mean
    rate = float(np.sum(excess)) / h.accumulation
    return PairRateResult(rate=rate, support=(lo, hi), threshold=threshold)


def make_synthetic_histogram(pair_rate_true: float, background_mean: float,
                             chain: DetectionChain, *, n_bins: int = 2048,
                             bin_width: float = 0.8,
                             accumulation: float = 120.0,
                             shape: str = "model", seed: int = 0,
                             tau_peak_ns: float | None = None,
                             width_ns: float = 60.0,
                             singles_signal: float | None = None,
                             singles_probe: float | None = None,
                             noiseless: bool = False) -> CoincidenceHistogram:
    """Generate a Poisson coincidence histogram with known ground truth.

    ``pair_rate_true`` is the generated pair rate (fiber-referenced);
    detected pairs are scaled by the chain efficiencies and distributed
    over an asymmetric double-exponential wave-packet shape (rise time
    width/6, fall time width) on top of a flat background.  ``noiseless``
    skips the Poisson step (and rounds to integers) for exact-arithmetic
    tests.  Fixed ``seed`` makes the output bit-identical across runs.
    """
    if shape != "model":
        raise ParameterError(f"unknown synthetic shape {shape!r}")
    tau = np.arange(n_bins, dtype=float) * bin_width
    if tau_peak_ns is None:
        tau_peak_ns = tau[n_bins // 4]
    rise = width_ns / 6.0
    fall = width_ns
    # one exp of a non-positive argument per bin, so it cannot overflow
    profile = np.exp(-np.abs(tau - tau_peak_ns)
                     / np.where(tau < tau_peak_ns, rise, fall))
    profile /= profile.sum()
    detected_pairs = pair_rate_true * chain.d_s * chain.d_p * accumulation
    expected = background_mean + detected_pairs * profile
    if noiseless:
        counts = np.round(expected).astype(np.int64)
    else:
        rng = np.random.default_rng(seed)
        counts = rng.poisson(expected).astype(np.int64)
    if singles_signal is None:
        singles_signal = pair_rate_true * 4.0
    if singles_probe is None:
        singles_probe = pair_rate_true * 5.0
    return CoincidenceHistogram(
        bin_start=tau, counts=counts, bin_width=bin_width,
        accumulation=accumulation, singles_signal=singles_signal,
        singles_probe=singles_probe, chain=chain, saturation_corrected=True)
