import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ribbonminor import EnumerationSpec, enumerate_presentations


@pytest.fixture(scope="session")
def sweep2():
    return enumerate_presentations(EnumerationSpec(2, 4, True))


@pytest.fixture(scope="session")
def raw3():
    """The circles of every raw word of 1-3 edges split into at most 4
    circles, in the order of the reference generator of tests/oracles.py."""
    from oracles import _compositions, _words

    return [
        [tuple((f"e{word[i][0]}", word[i][1]) for i in part) for part in parts]
        for e in range(1, 4)
        for word in _words(e)
        for parts in _compositions(2 * e, 4)
    ]


@pytest.fixture(scope="session")
def sweep3():
    return enumerate_presentations(EnumerationSpec(3, 4, True))
