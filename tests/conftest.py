import sys

import pytest


@pytest.fixture
def shallow_stack():
    """Run the test under a recursion limit of 200 frames."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    yield
    sys.setrecursionlimit(old)


@pytest.fixture
def grid_facets():
    """Facets of the triangulated n x n grid: each unit square is cut along
    one diagonal, so there are (n + 1)^2 vertices and 2 n^2 triangles."""
    def facets(n):
        def v(i, j):
            return f"v{i:03d}.{j:03d}"
        out = []
        for i in range(n):
            for j in range(n):
                out.append([v(i, j), v(i + 1, j), v(i + 1, j + 1)])
                out.append([v(i, j), v(i, j + 1), v(i + 1, j + 1)])
        return out
    return facets
