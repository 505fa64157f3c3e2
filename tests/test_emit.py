"""JSON round trips and LaTeX rendering."""

from fractions import Fraction

import pytest

from triality.clifford import cl7_basis
from triality.emit import (matrix_from_json, matrix_to_json, matrix_to_latex,
                           scalar_from_json, scalar_to_json, scalar_to_latex)
from triality.field import HALF, I, SQRT2, SQRT3, ZERO, from_parts, rational
from triality.matrix import Matrix, anticommutator
from triality.outer import outer_h, outer_t


def test_scalar_json_schema():
    x = HALF + I * SQRT3
    obj = scalar_to_json(x)
    assert obj == {"re": ["1/2", "0/1", "0/1", "0/1"],
                   "im": ["0/1", "0/1", "1/1", "0/1"]}
    assert scalar_from_json(obj) == x


@pytest.mark.parametrize("obj", [
    {"re": [0.1, 0, 0, 0], "im": [0, 0, 0, 0]},          # floats leak
    {"re": ["1"] * 5, "im": ["0"] * 3},                  # misaligned
    {"re": ["1/2", "0/1", "0/1"], "im": ["0/1"] * 4},    # too short
    {"re": ["1/0"] + ["0/1"] * 3, "im": ["0/1"] * 4},    # zero denominator
    {"re": ["0.5"] + ["0/1"] * 3, "im": ["0/1"] * 4},    # not p/q
    {"re": ["0/1"] * 4},                                 # no imaginary part
])
def test_scalar_json_needs_four_exact_strings_per_part(obj):
    with pytest.raises(ValueError):
        scalar_from_json(obj)


def test_zero_encodes_as_zero_over_one():
    assert scalar_to_json(ZERO)["re"] == ["0/1"] * 4


def test_matrix_round_trip_preserves_invariants():
    g2 = cl7_basis()[1]
    back = matrix_from_json(matrix_to_json(g2))
    assert back == g2
    assert anticommutator(back, back) == Matrix.identity(8).scale(rational(2))


def test_core_round_trips():
    for op in (outer_h(), outer_t()):
        assert matrix_from_json(matrix_to_json(op.core)) == op.core


def test_scalar_latex():
    assert scalar_to_latex(ZERO) == "0"
    assert scalar_to_latex(HALF) == r"\frac{1}{2}"
    assert scalar_to_latex(-SQRT2 * HALF) == r"-\frac{\sqrt{2}}{2}"
    assert scalar_to_latex(I * SQRT3) == r"i \sqrt{3}"
    x = from_parts(re=(Fraction(-1, 2),) + (0,) * 3,
                   im=(0, 0, Fraction(1, 2), 0))
    assert scalar_to_latex(x) == r"-\frac{1}{2}+\frac{i \sqrt{3}}{2}"


def test_matrix_latex_is_a_pmatrix():
    tex = matrix_to_latex(Matrix.identity(2))
    assert tex == r"\begin{pmatrix} 1 & 0 \\ 0 & 1 \end{pmatrix}"
