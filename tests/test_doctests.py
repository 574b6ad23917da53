"""Every docstring example in ``repro`` runs and prints what it shows.

No other test runs the package's doctests, so an example whose output
drifted from the code would go unnoticed.  This walks every ``repro``
module and runs :func:`doctest.testmod` on it.
"""

from __future__ import annotations

import doctest
import importlib
import pkgutil

import repro

#: Docstrings with examples in the package when this test was written.  A
#: walk that finds fewer has stopped reaching some module.
MIN_DOCSTRINGS_WITH_EXAMPLES = 6


def repro_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


def test_every_docstring_example_passes():
    finder = doctest.DocTestFinder()
    with_examples = 0
    failures = {}
    for module in repro_modules():
        with_examples += sum(1 for test in finder.find(module) if test.examples)
        result = doctest.testmod(module)
        if result.failed:
            failures[module.__name__] = result.failed
    assert not failures, f"failing examples per module (report in stdout): {failures}"
    assert with_examples >= MIN_DOCSTRINGS_WITH_EXAMPLES
