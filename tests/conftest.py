import pytest

# Frozen coefficient rows a_{r,.} (r = 1..7) and b_{r,.} (r = 1..6).
_A_ROWS = [
    [1],
    [-1],
    [-1, 1],
    [0, -1, 2, -1],
    [-1, 2, -1, 0, 1, -2, 1],
    [1, -2, 0, 1, 1, -1, 1, -1, -2, 3, -1],
    [-1, 1, 1, 1, -2, -1, 0, -1, 3, -1, 1, -1, 0, 1, -2, 1],
]
_B_ROWS = [
    [1],
    [1, -1],
    [1, -1, -1, 1],
    [1, -1, -1, 0, 1, 1, -1],
    [1, -1, -1, 0, 0, 2, 0, 0, -1, -1, 1],
    [1, -1, -1, 0, 0, 1, 1, 1, -1, -1, -1, 0, 0, 1, 1, -1],
]


@pytest.fixture
def a_rows():
    return [list(row) for row in _A_ROWS]


@pytest.fixture
def b_rows():
    return [list(row) for row in _B_ROWS]
