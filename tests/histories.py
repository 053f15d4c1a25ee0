"""Whole attachment histories: the reference that the prefix walk of
`scale_free._presence_table`, the sampler and the exact curves are
compared against. Test modules import it; pytest does not collect it.
"""

import itertools
from fractions import Fraction
from typing import Iterator

from bcprof.scale_free import _weight_totals


def _history_numerators(n: int) -> tuple[int, Iterator[tuple[tuple[int, ...], int]]]:
    """(D, every attachment history with its probability's numerator over D).

    D = D_n of `_weight_totals`, so a history's numerator is the product
    of the weights its chosen parents had when chosen.
    """
    denominator = _weight_totals(n)[n]

    def histories():
        for parents in itertools.product(*(range(1, t) for t in range(2, n + 1))):
            # weight[i] = attachment weight of label i: its degree, plus the
            # virtual unit for label 1; each label arrives with weight 1.
            weight = [0] + [1] * n
            num = 1
            for p in parents:
                num *= weight[p]
                weight[p] += 1
            yield parents, num

    return denominator, histories()


def enumerate_histories(n: int) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """All attachment histories with their exact probabilities."""
    denominator, histories = _history_numerators(n)
    for parents, num in histories:
        yield parents, Fraction(num, denominator)
