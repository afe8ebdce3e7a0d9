import pytest

from spectral_billiards.errors import NewtonDivergence
from spectral_billiards.roots import float_newton


def _cubic(x):
    return x ** 3 - 1.0, 3.0 * x * x


def _line(x):
    return x - 1.0, 1.0


@pytest.mark.parametrize("f_and_slope, start, visited", [
    (_cubic, 0.0, [0.0, 1.0]),      # f'(0) = 0: the midpoint of [-1, 2] is the root
    (_cubic, 1.0, [1.0]),           # f = 0: a zero step
    (_line, 3.0, [2.0, 1.0]),       # the start is moved into [-1, 2]
], ids=["zero-slope-bisects", "exact-root-stays", "start-clamped-into-bracket"])
def test_float_newton_steps(f_and_slope, start, visited):
    seen = []

    def recorded(x):
        seen.append(x)
        return f_and_slope(x)

    assert float_newton(recorded, start, -1.0, 2.0, 1e-14, 8.9e-16, "root") == 1.0
    assert seen == visited


def test_float_newton_names_what_did_not_settle():
    # a negative tolerance never stops
    with pytest.raises(NewtonDivergence, match="^slope test did not settle in 100 steps$"):
        float_newton(_line, 0.0, 0.0, 2.0, -1.0, 0.0, "slope test")
