"""Every invariant of the registry ``barflow.checks.ALL_CHECKS`` as a test.

The cases and bounds live in ``checks.py`` only; ``barflow check`` runs
the same functions.
"""

import inspect

import pytest

from barflow import checks
from barflow.checks import ALL_CHECKS


@pytest.mark.parametrize(
    "check",
    [fn for _, fn in ALL_CHECKS],
    ids=[name for name, _ in ALL_CHECKS],
)
def test_check(check):
    check()


def test_registry_complete():
    # a check missing from the registry would never run
    defined = sorted(
        name for name, fn in inspect.getmembers(checks, inspect.isfunction)
        if name.startswith("check_") and fn.__module__ == checks.__name__
    )
    assert sorted(fn.__name__ for _, fn in ALL_CHECKS) == defined
    ids = [name for name, _ in ALL_CHECKS]
    assert len(set(ids)) == len(ids)
