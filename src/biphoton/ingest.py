"""Input files, histogram normalization, and rate extraction.

Every input file is UTF-8 text read by :func:`read_text`.  The two
``key = value`` formats, the run config and the ``.meta`` sidecar, share
one reader, :func:`read_pairs`: '#' starts a comment, so a ``.meta``
value may carry a trailing ``# note``, and blank lines are skipped.  A
histogram is a CSV with header ``tau_ns,counts`` (one row per bin, '.'
decimal separator) plus a sidecar metadata file with the same basename
and a ``.meta`` suffix.  One schema table, :data:`_META_NUMBERS`, lists
the seven numeric metadata keys with the record field each fills; with
the flag ``saturation_corrected`` (true or false) they are the required
keys, and :func:`save_histogram` writes them in the table's order.  A
detuning series is a CSV with header :data:`SERIES_HEADER`.  All numbers
are decimal text; no binary formats, so data files stay auditable.

A table's rows are read by numpy's C text reader in one call.  Only
where it refuses a row, or its table has the wrong width or a non-finite
value, are the rows walked one line at a time through Python ``float()``;
the walk names the first bad row as ``<name>:<line>``, and it also reads
the spellings that only ``float()`` takes (``1_0``, non-ASCII digits).
A file holding U+001F, which the C reader strips around a number and
``float()`` does not, is walked from the start.  So the accepted
spellings are exactly those of ``float()``, blank lines are skipped, and
every value must be finite.  A histogram count must also be an integer
in [0, 2^53), where every integer is exact in float64.

Every CSV the package writes, histograms and CLI tables alike, goes
through :func:`write_table`: floats as their shortest round-trip ``repr``,
integers and strings as ``str``.  It formats a fixed-size block of rows at
a time, so the text held in memory stays bounded whatever the table
length, and within a block it formats each distinct value of a numeric
column once.  That pays because histogram columns repeat: g2 = counts /
background has no more distinct values than the counts.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataValueError, ParameterError, ParseError
from .fitting import DetuningSeries
from .observables import DetectionChain
from .units import ghz_to_gamma

# the numeric .meta keys in the order save_histogram writes them, each with
# the record and field its value fills, as a ParameterError names them
_META_NUMBERS = {
    "bin_width_ns": ("CoincidenceHistogram", "bin_width"),
    "accumulation_s": ("CoincidenceHistogram", "accumulation"),
    "singles_signal_per_s": ("CoincidenceHistogram", "singles_signal"),
    "singles_probe_per_s": ("CoincidenceHistogram", "singles_probe"),
    "d_s": ("DetectionChain", "d_s"),
    "d_p": ("DetectionChain", "d_p"),
    "fiber_factor": ("DetectionChain", "fiber_factor"),
}
# the one .meta key that is not a number: true or false
_META_FLAG = "saturation_corrected"

# moving-average window (bins) used before peak/support detection
SMOOTH_BINS = 5
# default background window: the trailing quarter of the tau range
DEFAULT_BACKGROUND_FRACTION = 0.25
MIN_BACKGROUND_BINS = 50
# support threshold: g2 > 1 + SUPPORT_NSIGMA * (relative background error)
SUPPORT_NSIGMA = 3.0
# a peak must clear sqrt(2 ln n_bins) standard errors, about the largest
# noise excess of a flat histogram, by this many more; flat 600-131072-bin
# histograms at 1-60 counts per bin reached 7.2 at most (600 seeds each)
PEAK_MARGIN_NSIGMA = 4.0
SERIES_HEADER = "delta_c_ghz,rg,rg_err,tau_w_ns,tau_w_err"
# counts from here up are not all exact in float64, nor safe in an int64 cast
_COUNT_LIMIT = 2.0 ** 53
# rows that write_table formats and writes at a time
_BLOCK_ROWS = 4096


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
        def bad(name, why):
            raise ParameterError.on_field(f"CoincidenceHistogram.{name}",
                                          getattr(self, name), why)

        if self.bin_start.ndim != 1 or self.bin_start.shape != self.counts.shape:
            raise ParameterError("bin_start and counts must match 1-d shapes")
        for name in ("bin_width", "accumulation", "singles_signal",
                     "singles_probe"):
            if not math.isfinite(getattr(self, name)):
                bad(name, "must be finite")
            if not getattr(self, name) > 0:
                bad(name, "must be positive")
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


def read_text(path: Path, error) -> str:
    """The text of the UTF-8 file ``path``, with universal newlines.

    A missing file raises ``error(str(path), True)``; an unreadable one (a
    directory, no permission, not UTF-8) ``error("<path>: <why>", False)``.
    """
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise error(str(path), True) from None
    except OSError as exc:
        raise error(f"{path}: {exc.strerror or exc}", False) from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 at byte {exc.start}", False) from None


def read_pairs(path: Path, error, bad_line):
    """The ``(key, value)`` pairs of a ``key = value`` file, in file order.

    '#' starts a comment and blank lines are skipped; keys and values are
    stripped.  ``error`` is as for :func:`read_text`; a line without '='
    raises ``bad_line("<name>:<line>")`` when the reader reaches it.
    """
    for lineno, line in enumerate(read_text(path, error).splitlines(),
                                  start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise bad_line(f"{path.name}:{lineno}")
        key, _, value = stripped.partition("=")
        yield key.strip(), value.strip()


def _data_error(what, missing_code=None):
    """The :func:`read_text` error factory of a data file: its failures
    are ParseErrors."""
    return lambda detail, missing: ParseError(
        f"{what} not found" if missing else f"cannot read {what}", detail,
        missing_code if missing else "DATA_UNREADABLE")


def _row_error(name, lines, bad, why):
    """The ParseError ``why`` (formatted with the row's text) naming
    ``<name>:<line>`` of the first table row flagged in the mask ``bad``;
    the table's rows are the non-blank lines after the header."""
    linenos = [n for n, line in enumerate(lines[1:], start=2) if line.strip()]
    lineno = linenos[int(np.argmax(bad))]
    return ParseError(why.format(repr(lines[lineno - 1])),
                      context=f"{name}:{lineno}")


def _walk_rows(lines, name, width):
    """The table of the rows of ``lines`` after the header, each cell read
    by Python ``float()``.

    Blank lines are skipped.  A row with the wrong field count, a bad
    number or a non-finite value raises ParseError naming ``<name>:<line>``.
    """
    values = []
    append = values.append
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        try:
            if len(parts) != width:
                raise ValueError
            for v in parts:
                append(float(v))
        except ValueError:
            raise ParseError(f"row {line!r} is not {width} numbers",
                             context=f"{name}:{lineno}") from None
    table = np.array(values).reshape(-1, width)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise _row_error(name, lines, ~finite, "non-finite value in row {}")
    return table


def _read_table(path: Path, header: str, what: str, missing_code=None):
    """Numeric CSV rows of the ``what`` file ``path`` under an exact
    ``header`` line, as an (n, k) array, and the file's lines.

    numpy's C reader parses the rows in one call.  Where it refuses them,
    or its table has the wrong width or a non-finite value, the rows are
    read again by :func:`_walk_rows`, which names the first bad row or
    returns the table of the spellings only ``float()`` accepts.  A text
    holding U+001F goes to the walk directly.  A file that cannot be read
    raises the :func:`_data_error` of ``what``.
    """
    text = read_text(path, _data_error(what, missing_code))
    lines = text.splitlines()
    name = path.name
    if not lines or lines[0].strip() != header:
        raise ParseError(f"expected header '{header}'", context=f"{name}:1")
    width = header.count(",") + 1
    if not any(lines[1:]):
        # loadtxt warns when it gets no data
        return np.empty((0, width)), lines
    table = None
    # loadtxt strips U+001F around a number, float() does not
    if "\x1f" not in text:
        try:
            table = np.loadtxt(lines[1:], delimiter=",", comments=None,
                               dtype=float, ndmin=2)
        except ValueError:
            pass
    if (table is None or table.shape[1] != width
            or not np.isfinite(table).all()):
        table = _walk_rows(lines, name, width)
    return table, lines


def meta_path_for(path) -> Path:
    return Path(path).with_suffix(".meta")


def load_histogram(path) -> CoincidenceHistogram:
    """Load a histogram CSV and its ``.meta`` sidecar, fully validated;
    a bad metadata value raises "<key> = <value>: <reason> (<name>.meta)".
    """
    path = Path(path)
    table, lines = _read_table(path, "tau_ns,counts", "histogram file")
    if not table.size:
        raise ParseError("histogram has no data rows", context=path.name)

    meta_file = meta_path_for(path)
    meta = dict(read_pairs(meta_file, _data_error("sidecar metadata file"),
                           lambda where: ParseError(
                               "metadata line is not 'key = value'", where)))
    missing = [k for k in (*_META_NUMBERS, _META_FLAG) if k not in meta]
    if missing:
        raise ParseError(f"missing metadata keys: {', '.join(missing)}",
                         context=meta_file.name)

    def refused(key, reason):
        return ParseError(f"{key} = {meta[key]}: {reason}",
                          context=meta_file.name)

    flag = meta[_META_FLAG].lower()
    if flag not in ("true", "false"):
        raise refused(_META_FLAG, "must be true or false")

    counts = table[:, 1]
    bad = ((counts < 0) | (counts >= _COUNT_LIMIT)
           | (counts != np.floor(counts)))
    if bad.any():
        raise _row_error(path.name, lines, bad,
                         "count in row {} is not an integer in [0, 2^53)")
    # the keyword arguments of each record, filled from the schema
    fields = {"CoincidenceHistogram": {}, "DetectionChain": {}}
    for key, (record, name) in _META_NUMBERS.items():
        try:
            fields[record][name] = float(meta[key])
        except ValueError:
            raise refused(key, "not a number") from None
    try:
        return CoincidenceHistogram(
            bin_start=table[:, 0].copy(),
            counts=counts.astype(np.int64),
            chain=DetectionChain(**fields["DetectionChain"]),
            saturation_corrected=flag == "true",
            **fields["CoincidenceHistogram"])
    except ParameterError as exc:
        key = next((key for key, field in _META_NUMBERS.items()
                    if ".".join(field) == exc.field), None)
        if key is None:
            raise ParseError(str(exc), context=path.name) from exc
        raise refused(key, exc.reason) from exc


def load_series(path, fixed) -> DetuningSeries:
    """Load a measured (R_g, tau_w) vs detuning series CSV.

    ``fixed`` holds the parameters the fit does not vary.  Fewer than 4
    rows is a usage error (SERIES_TOO_SHORT), any other fault a ParseError.
    """
    path = Path(path)
    table, lines = _read_table(path, SERIES_HEADER, "series file",
                               "DATA_NOT_FOUND")
    # finite in GHz is not enough: the model works in units of Gamma
    with np.errstate(over="ignore"):
        far = ~np.isfinite(ghz_to_gamma(table[:, 0]))
    if far.any():
        raise _row_error(path.name, lines, far, "delta_c_ghz in row {} is "
                         "not finite in units of Gamma")
    if table.shape[0] < 4:
        raise ParameterError(f"need >= 4 points, got {table.shape[0]}",
                             code="SERIES_TOO_SHORT")
    try:
        return DetuningSeries(*table.T, fixed=fixed, label=path.stem)
    except ParameterError as exc:
        raise ParseError(str(exc), context=path.name) from exc


def _cell(x) -> str:
    """One cell of an object column: a float as its shortest round-trip
    repr, anything else as str."""
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def _column_cells(col) -> list[str]:
    """The cell texts of one block of a column.

    A float64 or integer array formats each distinct value once, a float
    keyed by its bit pattern so that -0.0 and every nan keep their text.
    """
    if isinstance(col, np.ndarray) and col.dtype == np.float64:
        distinct, where = np.unique(col.view(np.int64), return_inverse=True)
        texts = map(float.__repr__, distinct.view(np.float64).tolist())
    elif isinstance(col, np.ndarray) and col.dtype.kind in "iu":
        distinct, where = np.unique(col, return_inverse=True)
        texts = map(str, distinct.tolist())
    else:
        return list(map(_cell, col))
    return np.array(list(texts), dtype=object)[where].tolist()


def write_table(path, header: str, columns) -> None:
    """Write a CSV of ``header`` and the rows of the equal-length
    ``columns``.

    A column is a numpy array or a sequence; a float64 or integer array is
    formatted column-wise, any other column cell by cell (the ``"ERROR"``
    cells of a failed sweep point, names, units, flags).  An OSError from
    the file system propagates.
    """
    with Path(path).open("w") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(columns[0]), _BLOCK_ROWS):
            cells = [_column_cells(c[lo:lo + _BLOCK_ROWS]) for c in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def save_histogram(h: CoincidenceHistogram, path) -> None:
    """Write a histogram + sidecar; load_histogram round-trips bit-exactly."""
    path = Path(path)
    write_table(path, "tau_ns,counts",
                [np.asarray(h.bin_start, dtype=np.float64),
                 np.asarray(h.counts).astype(np.int64)])
    records = {"CoincidenceHistogram": h, "DetectionChain": h.chain}
    lines = [f"{key} = {float(getattr(records[record], name))!r}"
             for key, (record, name) in _META_NUMBERS.items()]
    flag = "true" if h.saturation_corrected else "false"
    meta_path_for(path).write_text(
        "\n".join([*lines, f"{_META_FLAG} = {flag}"]) + "\n")


def _smoothed(values, width=SMOOTH_BINS):
    kernel = np.ones(width) / width
    return np.convolve(np.asarray(values, dtype=float), kernel, mode="same")


def region_above(values, start: int, threshold) -> tuple[int, int]:
    """Inclusive index range around ``start`` where ``values`` stay above
    ``threshold``."""
    lo = start
    while lo > 0 and values[lo - 1] > threshold:
        lo -= 1
    hi = start
    while hi < len(values) - 1 and values[hi + 1] > threshold:
        hi += 1
    return lo, hi


def _peak_region(counts):
    """Contiguous bin range around a significant smoothed peak, or None.

    A peak counts as significant when the smoothed maximum clears the
    median by sqrt(2 ln n_bins) + PEAK_MARGIN_NSIGMA standard errors of
    the smoothed flat-background estimate (the first term grows with the
    bins noise can peak in); the region extends while the smoothed excess
    stays above 20% of the peak excess.  Invented heuristic, documented
    here and configurable only through the background window choice.
    """
    smooth = _smoothed(counts)
    median = float(np.median(smooth))
    peak_idx = int(np.argmax(smooth))
    excess = smooth[peak_idx] - median
    sigma = math.sqrt(max(median, 1.0) / SMOOTH_BINS)
    nsigma = math.sqrt(2.0 * math.log(smooth.size)) + PEAK_MARGIN_NSIGMA
    if excess <= nsigma * sigma:
        return None
    return region_above(smooth, peak_idx, median + 0.2 * excess)


def default_background_window(h: CoincidenceHistogram) -> tuple[float, float]:
    """Trailing 25% of the tau range."""
    t0 = float(h.bin_start[0])
    t1 = float(h.bin_start[-1])
    return (t1 - (t1 - t0) * DEFAULT_BACKGROUND_FRACTION, t1 + h.bin_width)


def _background_refusal(detail, defaulted):
    if not defaulted:
        return ParameterError(detail)
    return DataValueError(
        f"default {detail}; set analyze.background_lo_ns and "
        "analyze.background_hi_ns to a peak-free window")


def estimate_background(h: CoincidenceHistogram,
                        window: tuple[float, float] | None = None
                        ) -> BackgroundEstimate:
    """Mean counts per bin (and standard error) over a peak-free window.

    ``window`` is a (tau_lo, tau_hi) interval in ns selecting bins by
    their start time; it defaults to the trailing quarter of the range.
    The window must hold at least 50 bins, must not overlap the
    auto-detected wave-packet peak and must have a positive mean.  A
    window given here that fails is a ParameterError; the default window
    failing is a fault of the data, a DataValueError.
    """
    defaulted = window is None
    if defaulted:
        window = default_background_window(h)
    lo, hi = window
    mask = (h.bin_start >= lo) & (h.bin_start < hi)
    n = int(np.count_nonzero(mask))
    if n < MIN_BACKGROUND_BINS:
        raise _background_refusal(
            f"background window holds {n} bins; need >= {MIN_BACKGROUND_BINS}",
            defaulted)
    region = _peak_region(h.counts)
    if region is not None:
        sel = np.flatnonzero(mask)
        if sel.min() <= region[1] and sel.max() >= region[0]:
            raise _background_refusal(
                "background window overlaps the detected wave packet "
                f"(bins {region[0]}..{region[1]})", defaulted)
    vals = h.counts[mask].astype(float)
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    if mean <= 0:
        raise _background_refusal("background window mean must be positive",
                                  defaulted)
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
    lo, hi = region_above(smooth, peak_idx, threshold)
    excess = h.counts[lo:hi + 1].astype(float) - background.mean
    rate = float(np.sum(excess)) / h.accumulation
    return PairRateResult(rate=rate, support=(lo, hi), threshold=threshold)


def make_synthetic_histogram(pair_rate_true: float, background_mean: float,
                             chain: DetectionChain, *, n_bins: int = 2048,
                             bin_width: float = 0.8,
                             accumulation: float = 120.0,
                             seed: int = 0,
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
    # singles rates stay positive at a zero pair rate
    if singles_signal is None:
        singles_signal = max(pair_rate_true, 1e5) * 4.0
    if singles_probe is None:
        singles_probe = max(pair_rate_true, 1e5) * 5.0
    return CoincidenceHistogram(
        bin_start=tau, counts=counts, bin_width=bin_width,
        accumulation=accumulation, singles_signal=singles_signal,
        singles_probe=singles_probe, chain=chain, saturation_corrected=True)
