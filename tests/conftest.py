import sys

import pytest


@pytest.fixture
def shallow_stack():
    """Run the test under a recursion limit of 200 frames."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    yield
    sys.setrecursionlimit(old)
