"""Shared pytest wiring.

Tests in ``test_acceptance.py`` carry an ``acceptance`` marker with a short
label.  The hooks below collect their outcomes and print one PASS/FAIL line
per labelled check at the end of the run, so the release gate is readable
at a glance even inside a long test log.
"""

import numpy as np
import pytest
from hypothesis import settings

from quadwg.spectral import DirectionPair, SeparableState, gaussian_sum_spectrum

settings.register_profile("suite", deadline=None, max_examples=50,
                          derandomize=True)
# A deeper run of the parity tests: the QUADPACK port against the
# installed scipy, the filtered state against its reference, the
# time-domain integration and grid scattering against their four-channel
# expressions, and the emission spectrum against its whole-array ones:
# pytest tests/test_quadpack.py --hypothesis-profile=parity
# pytest tests/test_entanglement.py --hypothesis-profile=parity
# pytest tests/test_timedomain.py --hypothesis-profile=parity
# (the arrowhead eigen-solver and integration against dense eigh alone:
# pytest tests/test_timedomain.py -k dense_eigh --hypothesis-profile=parity)
# pytest tests/test_emission.py --hypothesis-profile=parity
# the grid rule, time-domain bands included, against the constructors'
# own expressions and P_total:
# pytest tests/test_spectral.py -k grid_rule --hypothesis-profile=parity
# and the CSV kernel, its label offsets and copied blocks against '%.12g':
# pytest tests/test_cli.py -k "g12 or joint or abs2" --hypothesis-profile=parity
settings.register_profile("parity", deadline=None, max_examples=2000)
settings.load_profile("suite")

_GATE: dict[str, bool] = {}


def matched_state(coupling, sigma):
    """A resonant ``++`` pair: a Gaussian sum factor of width ``sigma``
    and the envelope's conjugate as its difference profile."""
    f, window = gaussian_sum_spectrum(coupling.omega0, sigma)
    env = coupling.envelope
    return SeparableState(DirectionPair.PP, f,
                          lambda d: np.conj(env(d)), window,
                          (0.0, 12 * env.width + 12 * sigma))


@pytest.fixture
def quad_calls(monkeypatch):
    """List that grows by one entry per ``quad`` call the library makes."""
    from quadwg import gate, scattering, spectral

    calls = []
    for module in (spectral, scattering, gate):
        def counted(*args, _quad=module.quad, _name=module.__name__, **kwargs):
            calls.append(_name)
            return _quad(*args, **kwargs)

        monkeypatch.setattr(module, "quad", counted)
    return calls


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(label): release-gate check reported as a PASS/FAIL line")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    label = marker.args[0]
    if report.when == "call":
        _GATE[label] = _GATE.get(label, True) and report.passed
    elif report.failed or report.skipped:
        # Setup or teardown trouble must not surface as a silent pass.
        _GATE[label] = False


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _GATE:
        return
    terminalreporter.section("acceptance gate")
    for label, ok in _GATE.items():
        terminalreporter.write_line(("PASS  " if ok else "FAIL  ") + label)
