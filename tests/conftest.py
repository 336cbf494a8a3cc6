"""Shared pytest wiring.

Collects one line per acceptance check (tests/test_acceptance.py) and
prints a PASS/FAIL summary block at the end of the run, so the criteria
can be audited at a glance without scrolling through the full log.

The `stewart_reference` fixture is the Haar sampler's stream, written
out column by column in plain numpy, for the tests that hold the
library's sampler to it.
"""

import numpy as np
import pytest


def _stewart_isometry(rows, cols, rng):
    # column j draws rows - j real parts, then rows - j imaginary parts;
    # zlarfg's reflector of that Gaussian vector, then Q = H_0 ... H_(c-1) [I; 0]
    # by one rank-one update per reflector, and column j times sign(beta_j)
    reflectors, taus, betas = [], [], []
    for j in range(cols):
        re, im = rng.standard_normal(rows - j), rng.standard_normal(rows - j)
        x = (re + 1j * im) / np.sqrt(2.0)
        alpha = x[0]
        beta = -np.copysign(np.linalg.norm(x), alpha.real)
        reflectors.append(np.concatenate([[1.0], x[1:] / (alpha - beta)]))
        taus.append((beta - alpha) / beta)
        betas.append(beta)
    q = np.eye(rows, cols, dtype=np.complex128)
    for j in reversed(range(cols)):
        v = reflectors[j]
        q[j:] -= np.outer(taus[j] * v, v.conj() @ q[j:])
    return q * np.sign(betas)


@pytest.fixture
def stewart_reference():
    """(rows, cols, rng) -> the Haar isometry the stream spec gives, in plain numpy."""
    return _stewart_isometry

_ACCEPTANCE_LINES: list[tuple[str, str, float]] = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    if item.fspath.basename != "test_acceptance.py":
        return
    doc = item.function.__doc__ or item.name
    label = doc.strip().splitlines()[0]
    status = "PASS" if report.passed else "FAIL"
    _ACCEPTANCE_LINES.append((label, status, report.duration))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for label, status, duration in _ACCEPTANCE_LINES:
        terminalreporter.write_line(f"{status}  {label}  [{duration:.1f}s]")
