import numpy as np
import pytest

from biphoton.kernels import METHOD_ADAPTIVE, METHOD_TRAPEZOID, QuadratureSpec
from biphoton.params import coupling_15mw_params, coupling_30mw_params


def pytest_addoption(parser):
    parser.addoption(
        "--console-script", action="store_true",
        help="run only the CLI tests that take the run_cli fixture, each "
             "call through the installed biphoton script")


def pytest_collection_modifyitems(config, items):
    if not config.getoption("console_script"):
        return
    through_script = [item for item in items
                      if "run_cli" in getattr(item, "fixturenames", ())]
    config.hook.pytest_deselected(
        items=[item for item in items if item not in through_script])
    items[:] = through_script


@pytest.fixture(scope="session")
def params_15mw():
    return coupling_15mw_params()


@pytest.fixture(scope="session")
def params_30mw():
    return coupling_30mw_params()


@pytest.fixture(scope="session")
def trapezoid_oracle():
    """The brute-force oracle of record: 1e6 points over +-8 Doppler widths."""
    return QuadratureSpec(method=METHOD_TRAPEZOID, trapezoid_points=1_000_000,
                          support_halfwidth=8.0)


@pytest.fixture(scope="session")
def adaptive_oracle():
    return QuadratureSpec(method=METHOD_ADAPTIVE, panel_tolerance=1e-11)


def at_point(f, x, *args):
    """``f`` at the one point ``x``, through a one-element array; the
    numerical core takes 1-d arrays only."""
    return f(np.array([x]), *args)[0]


def rel_err(approx, exact):
    exact = complex(exact)
    if exact == 0:
        return abs(complex(approx))
    return abs(complex(approx) - exact) / abs(exact)


@pytest.fixture(scope="session")
def random_valid_params():
    """Physically sensible randomized parameter sets (fixed seed)."""
    rng = np.random.default_rng(20240817)

    def draw(n):
        out = []
        for _ in range(n):
            out.append(dict(
                alpha=float(rng.uniform(100.0, 800.0)),
                b=float(rng.uniform(0.0, 0.6)),
                omega_c=float(rng.uniform(6.0, 20.0)),
                gamma_dec=float(np.exp(rng.uniform(np.log(0.005), np.log(0.05)))),
                gamma_doppler=float(rng.uniform(30.0, 80.0)),
                gamma_etalon=float(rng.uniform(4.0, 15.0)),
                delta_c_ghz=float(rng.uniform(0.0, 3.0)),
            ))
        return out

    return draw


def oracle_cell(v):
    """One CSV cell as the per-value formatter of record wrote it: a float
    as ``repr(float(v))``, an integer as ``str(int(v))``, anything else
    (names, units, flags, ``"ERROR"``) as ``str(v)``."""
    if isinstance(v, float):
        return repr(float(v))
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    return str(v)


def oracle_table(header, columns):
    """The text of a CSV table, formatted row by row and cell by cell."""
    lines = [header]
    lines += [",".join(oracle_cell(v) for v in row) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


def first_difference(got, want):
    """None for equal texts, else (line number, got line, wanted line) of
    the first line that differs; short where a diff of long texts is not."""
    if got == want:
        return None
    got_lines, want_lines = got.split("\n"), want.split("\n")
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        if g != w:
            return i + 1, g, w
    n = min(len(got_lines), len(want_lines))
    return n + 1, got_lines[n:n + 1], want_lines[n:n + 1]
