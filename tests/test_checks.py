"""Every invariant of the registry ``barflow.checks.ALL_CHECKS`` as a test.

The cases and bounds live in ``checks.py`` only; ``barflow check`` runs
the same functions, and ``tests/test_acceptance.py`` runs five of them on
their ``*_ACCEPTANCE`` tables.
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
    # every acceptance table X_ACCEPTANCE feeds the one registered check whose
    # quick cases are X_QUICK, so no criterion restates the invariant itself
    params = [inspect.signature(fn).parameters.get("cases") for _, fn in ALL_CHECKS]
    quick_tables = [p.default for p in params if p is not None]
    for name in [n for n in vars(checks) if n.endswith("_ACCEPTANCE")]:
        table, quick = getattr(checks, name), getattr(checks, name.removesuffix("_ACCEPTANCE") + "_QUICK")
        assert sum(q is quick for q in quick_tables) == 1, name
        assert table and {len(case) for case in table} == {len(case) for case in quick}, name
