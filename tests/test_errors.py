"""One warning path: every library warning names the caller's line, and
only ``errors`` issues warnings or walks frames."""

import ast
import pathlib

import pytest

import quadwg
from quadwg import errors
from quadwg.errors import IntegrationWarning, MarkovValidityWarning
from quadwg.scattering import channel_probabilities, scatter
from quadwg.spectral import (CouplingSpec, DirectionPair, Envelope,
                             gaussian_biphoton)


@pytest.mark.parametrize("build", [
    lambda env: CouplingSpec(1.0, {"++": 0.2}, env),
    lambda env: CouplingSpec.isotropic(0.2, env),
], ids=["init", "isotropic"])
def test_markov_validity_warning_names_the_calling_line(build):
    with pytest.warns(MarkovValidityWarning) as record:
        build(Envelope.gaussian(0.02))
    assert [w.filename for w in record] == [__file__]


def test_integration_warning_names_the_calling_line():
    # At a total rate of 2e-7 the resonance weight's absolute tolerance is
    # out of scale, and QUADPACK's extrapolation detects roundoff.
    coupling = CouplingSpec.isotropic(2e-7, Envelope.gaussian(0.02))
    state = gaussian_biphoton(DirectionPair.PP, 1.0, 0.02)
    with pytest.warns(IntegrationWarning) as record:
        channel_probabilities(scatter(coupling, state))
    assert [w.filename for w in record] == [__file__]


def _calls(tree):
    """``(module, name)`` for each attribute of a plain name, such as
    ``warnings.warn``, and each name imported from a module."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)):
            yield node.value.id, node.attr
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                yield node.module, alias.name


def test_only_errors_issues_warnings_or_walks_frames():
    package = pathlib.Path(quadwg.__file__).parent
    banned = {("warnings", "warn"), ("warnings", "warn_explicit"),
              ("sys", "_getframe")}
    found = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        hits = banned.intersection(_calls(tree))
        if hits:
            found[path.name] = sorted(hits)
    assert found == {"errors.py": [("sys", "_getframe"),
                                   ("warnings", "warn")]}


@pytest.mark.parametrize("name", ["InvalidStateError", "InvalidOverlapError",
                                  "UndefinedCorrelationError"])
def test_numerical_failures_stay_value_errors(name):
    cls = getattr(errors, name)
    assert issubclass(cls, ValueError)
    assert issubclass(cls, errors._NumericalFailure)
    assert name in quadwg.__all__
