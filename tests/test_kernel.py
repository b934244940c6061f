"""The pure-Python multiplication kernel behind ``RingPresentation``."""

from fractions import Fraction

import skewgb
from skewgb.kernel import MulKernel
from skewgb.ring import weyl_presentation


def test_backend_is_reported():
    assert skewgb.BACKEND == "python"
    assert isinstance(weyl_presentation(2).kernel(), MulKernel)


def test_normalize_word_identity_cases():
    kern = weyl_presentation(1).kernel()
    # y x -> x y + 1
    assert kern.normalize_word((1, 0)) == {
        ((1,), (1,)): Fraction(1),
        ((0,), (0,)): Fraction(1),
    }
    # already-normal words pass through
    assert kern.normalize_word((0, 0, 1)) == {((2,), (1,)): Fraction(1)}
    assert kern.normalize_word(()) == {((0,), (0,)): Fraction(1)}
