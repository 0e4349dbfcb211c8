"""Seeded input generators for the benchmark.

Every generator takes a ``random.Random`` and returns text in the
repository's own file formats, so that set-up time includes parsing and the
program only ever sees generated inputs.  The same seed gives the same text.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

TARGET = Fraction(2, 3)


def rng_for(seed: int, label: str) -> random.Random:
    """An independent stream per (seed, purpose); string seeds hash with
    SHA-512 inside ``random``, so the stream does not depend on
    ``PYTHONHASHSEED``."""
    return random.Random(f"perfbench:{seed}:{label}")


def _game_text(strategies: list[list[str]], payoff) -> str:
    lines = [f"players: {len(strategies)}"]
    for i, names in enumerate(strategies):
        lines.append(f"strategies {i + 1}: " + " ".join(names))
    for profile in product(*strategies):
        values = " ".join(str(v) for v in payoff(profile))
        lines.append("payoff " + " ".join(profile) + " : " + values)
    return "\n".join(lines) + "\n"


def guess_game_text(n: int, k: int, rng: random.Random) -> str:
    """Guess 2/3 of the average: n players each name a number in 0..k-1 and
    lose the distance to 2/3 of the mean.

    Iterated elimination peels numbers off the top one round at a time, so
    chains grow with k.  The seed draws a positive affine rescaling of each
    player's payoffs: every number in the file changes, the strategic
    structure (and so the work elimination does) does not.
    """
    strategies = [[f"c{c}" for c in range(k)] for _ in range(n)]
    scales = [(rng.randint(1, 6), rng.randint(-9, 9)) for _ in range(n)]

    def payoff(profile):
        numbers = [int(name[1:]) for name in profile]
        target = TARGET * Fraction(sum(numbers), n)
        return [-a * abs(c - target) + b for c, (a, b) in zip(numbers, scales)]

    return _game_text(strategies, payoff)


def random_game_text(shape: tuple[int, ...], rng: random.Random, high: int = 9) -> str:
    """A game of the given shape with independent integer payoffs in 0..high."""
    strategies = [[f"s{i + 1}{chr(97 + c)}" for c in range(m)] for i, m in enumerate(shape)]
    return _game_text(strategies, lambda _profile: [rng.randint(0, high) for _ in shape])
