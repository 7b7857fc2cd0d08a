"""Every invariant of the registry ``barflow.checks.ALL_CHECKS`` as a test.

The cases and bounds live in ``checks.py`` only; ``barflow check`` runs
the same functions.
"""

import pytest

from barflow.checks import ALL_CHECKS


@pytest.mark.parametrize(
    "check",
    [fn for _, fn in ALL_CHECKS],
    ids=[name for name, _ in ALL_CHECKS],
)
def test_check(check):
    check()
