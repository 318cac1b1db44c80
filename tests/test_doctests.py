"""Run the doctest examples embedded in module/class docstrings."""

import doctest

import pytest

import repro
import repro.analysis.reporting
import repro.network.graph
import repro.obs.telemetry
import repro.timegrid


@pytest.mark.parametrize(
    "module",
    [
        repro,
        repro.timegrid,
        repro.network.graph,
        repro.analysis.reporting,
        repro.obs.telemetry,
    ],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    failures, tested = doctest.testmod(
        module, optionflags=doctest.ELLIPSIS, verbose=False
    )
    assert failures == 0
    assert tested > 0, f"{module.__name__} has no doctest examples"
