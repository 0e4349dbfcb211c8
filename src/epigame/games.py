"""Finite strategic games with exact rational payoffs, and their restriction lattice.

A game fixes one finite, ordered strategy set per player and one rational
payoff per player per strategy profile.  A restriction picks a subset of each
player's strategies; restrictions of a game form a complete lattice under
componentwise inclusion, which is what the elimination operators act on.
Players are 0-indexed throughout the Python API; the text format and all
printed output use 1-based indices.

This lowest layer also holds the input skeleton every parser shares:
:class:`FormatError`, the base of each parser's error, which names the
line (and column) of a refusal; :func:`records`, the blank-and-comment
line reader; :func:`player_line` and :func:`require_players`, which read
the per-player ``<keyword> <i>:`` heads; :func:`check_names`, which
refuses names a text format could not write back; and :func:`read_index`,
which reads counts and indices in ASCII digits only.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from importlib import resources
from itertools import product
from math import prod
from typing import Container, Iterable, Iterator, Mapping, Sequence

Profile = tuple[str, ...]

# what a strategy name may not hold, so that a payoff line can name it
_STRATEGY_RESERVED = re.compile(r"[\s:]")


class FormatError(ValueError):
    """Malformed text input, at a 1-based ``line`` and ``column`` when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}" if column is None else f"line {line}, column {column}"
            message = f"{where}: {message}"
        super().__init__(message)


class GameFormatError(FormatError):
    """A malformed game description."""


@dataclass(frozen=True)
class Game:
    """An n-player strategic game.

    ``strategies[i]`` is player i's ordered strategy tuple; ``payoffs`` maps
    every full profile to one exact rational per player.  Ties between
    payoffs are allowed, so each player's induced preference over profiles is
    a total preorder, not necessarily a linear order.
    """

    strategies: tuple[tuple[str, ...], ...]
    payoffs: Mapping[Profile, tuple[Fraction, ...]]

    def __post_init__(self):
        if len(self.strategies) == 0:
            raise GameFormatError("a game needs at least one player")
        for i, names in enumerate(self.strategies):
            if not names:
                raise GameFormatError(f"player {i + 1} has no strategies")
            check_names(names, _STRATEGY_RESERVED, "strategy name", GameFormatError)
            if len(set(names)) != len(names):
                raise GameFormatError(f"duplicate strategy name for player {i + 1}")
        known = [frozenset(names) for names in self.strategies]
        for profile, values in self.payoffs.items():
            if not (
                isinstance(profile, tuple)
                and len(profile) == self.n
                and all(map(frozenset.__contains__, known, profile))
            ):
                raise GameFormatError(f"payoff given for unknown profile {profile}")
            if len(values) != self.n or not all(isinstance(v, Fraction) for v in values):
                raise GameFormatError(f"profile {profile} needs {self.n} rational payoffs")
        # every given profile is known, so the count decides completeness; the
        # first gap in strategy order lies within len(payoffs) + 1 profiles
        if len(self.payoffs) != prod(map(len, self.strategies)):
            missing = next(p for p in product(*self.strategies) if p not in self.payoffs)
            raise GameFormatError(f"missing payoff for profile {missing}")

    def __hash__(self) -> int:
        # the generated hash chokes on the payoff mapping
        return hash((self.strategies, tuple(sorted(self.payoffs.items()))))

    def __getstate__(self) -> dict:
        # copies and pickles leave the caches behind: they are rebuilt on
        # demand, and compiled modal programs cannot be pickled
        return {"strategies": self.strategies, "payoffs": self.payoffs}

    @property
    def n(self) -> int:
        return len(self.strategies)

    @property
    def players(self) -> range:
        return range(self.n)

    def payoff(self, player: int, profile: Profile) -> Fraction:
        return self.payoffs[profile][player]

    def profiles(self) -> Iterator[Profile]:
        """All strategy profiles, in the order induced by the strategy lists."""
        return product(*self.strategies)

    def preferences(self, player: int) -> Preferences:
        """The player's payoff comparisons as bitmasks, built on first use
        and kept with the game."""
        return self._preference_tables[player]

    @cached_property
    def _preference_tables(self) -> tuple[Preferences, ...]:
        return tuple(Preferences.of(self, i) for i in self.players)

    @cached_property
    def modal_cache(self) -> dict:
        """What :mod:`epigame.modal` keeps per game: (formula, condition
        registry) -> compiled program, condition formula -> survivor table,
        and None -> a weak reference to the last belief model interpreted,
        with its mask form.  Emptied before a program is compiled into it
        once it holds :data:`~epigame.modal.MAX_CACHED_PROGRAMS` entries."""
        return {}

    def full_restriction(self) -> Restriction:
        return Restriction(self, tuple(frozenset(names) for names in self.strategies))

    def restriction(self, *components: Iterable[str]) -> Restriction:
        """Build a restriction from one strategy collection per player."""
        if len(components) != self.n:
            raise ValueError(f"expected {self.n} components, got {len(components)}")
        return Restriction(self, tuple(frozenset(c) for c in components))


@dataclass(frozen=True)
class Preferences:
    """One player's payoffs, compared once and stored as bitmasks.

    The partial profiles of everyone else are numbered in
    :func:`itertools.product` order over their strategy lists; the
    player's own strategies are numbered by position, strategy k being
    bit k of a mask.  ``at_least[r][t]`` is the mask of own strategies
    whose payoff against opponents' profile r is at least strategy t's.
    """

    at_least: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, game: Game, player: int) -> Preferences:
        # integer ranks of the player's distinct payoffs, so the k^2
        # comparisons per opponents' profile compare ints, not Fractions
        values = sorted({payoff[player] for payoff in game.payoffs.values()})
        rank = {value: k for k, value in enumerate(values)}
        at_least = []
        for rest in product(*game.strategies[:player], *game.strategies[player + 1 :]):
            ranks = [
                rank[game.payoff(player, rest[:player] + (s,) + rest[player:])]
                for s in game.strategies[player]
            ]
            at_least.append(tuple(_mask(r >= pivot for r in ranks) for pivot in ranks))
        return cls(tuple(at_least))

    @cached_property
    def at_most(self) -> tuple[tuple[int, ...], ...]:
        """``at_most[r][t]``: the mask of own strategies whose payoff against
        r is at most t's.  Built from ``at_least`` on first use, as the
        builtin conditions never need it."""
        return tuple(
            tuple(_mask(row[s] >> t & 1 for s in range(len(row))) for t in range(len(row)))
            for row in self.at_least
        )


def _mask(bits: Iterable[bool]) -> int:
    return sum(1 << k for k, bit in enumerate(bits) if bit)


def profile_with(profile: Profile, player: int, strategy: str) -> Profile:
    """The profile obtained by replacing one player's component."""
    return profile[:player] + (strategy,) + profile[player + 1 :]


@dataclass(frozen=True)
class Restriction:
    """A componentwise subset of a game's strategy sets.  Components may be empty."""

    game: Game
    sets: tuple[frozenset[str], ...]

    def __post_init__(self):
        if len(self.sets) != self.game.n:
            raise ValueError("restriction must have one component per player")
        for i, chosen in enumerate(self.sets):
            rogue = chosen - set(self.game.strategies[i])
            if rogue:
                raise ValueError(f"unknown strategy {sorted(rogue)[0]!r} for player {i + 1}")

    def _check_same_game(self, other: Restriction) -> None:
        if self.game != other.game:
            raise ValueError("restrictions belong to different games")

    def leq(self, other: Restriction) -> bool:
        """Componentwise inclusion: is every component of self inside other's?"""
        self._check_same_game(other)
        return all(a <= b for a, b in zip(self.sets, other.sets))

    def meet(self, other: Restriction) -> Restriction:
        self._check_same_game(other)
        return Restriction(self.game, tuple(a & b for a, b in zip(self.sets, other.sets)))

    def join(self, other: Restriction) -> Restriction:
        self._check_same_game(other)
        return Restriction(self.game, tuple(a | b for a, b in zip(self.sets, other.sets)))

    def is_empty(self) -> bool:
        """True when every component is empty (the lattice bottom)."""
        return all(not c for c in self.sets)

    def ordered(self, player: int) -> tuple[str, ...]:
        """One component as a tuple, in the game's strategy order."""
        return tuple(s for s in self.game.strategies[player] if s in self.sets[player])

    def key(self) -> tuple[tuple[str, ...], ...]:
        """A canonical hashable form (used as a dict key; game-relative)."""
        return tuple(self.ordered(i) for i in self.game.players)

    def size(self) -> int:
        return sum(len(c) for c in self.sets)

    def __str__(self) -> str:
        parts = []
        for i in self.game.players:
            names = " ".join(self.ordered(i))
            parts.append(f"{i + 1}: {names if names else '-'}")
        return " / ".join(parts)


def subsets(items: Sequence[str]) -> Iterator[frozenset[str]]:
    """Every subset of the items by binary counting over their order: item
    k is bit k, so the empty set comes first and the full set last."""
    for mask in range(1 << len(items)):
        yield frozenset(s for b, s in enumerate(items) if mask >> b & 1)


def restrictions(game: Game) -> Iterator[Restriction]:
    """Every restriction of the game, in a fixed canonical order.

    Per player, subsets are enumerated by :func:`subsets` over the strategy
    order; players vary with the last one fastest.
    """
    for combo in product(*map(subsets, game.strategies)):
        yield Restriction(game, combo)


def lattice_size(game: Game) -> int:
    size = 1
    for names in game.strategies:
        size <<= len(names)
    return size


def records(text: str) -> Iterator[tuple[int, str, str]]:
    """(1-based number, stripped text, raw text) of each line that is
    neither blank nor a comment; a comment's stripped text starts with ``#``."""
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield number, line, raw


def read_index(text: str) -> int | None:
    """A count or index in ASCII digits, else None: ``int`` refuses some
    digits ``str.isdigit`` passes, such as '²', and numbers past its limit."""
    try:
        return int(text) if text.isascii() and text.isdigit() else None
    except ValueError:
        return None


def player_line(
    line: str, keyword: str, players: int, given: Container[int], error: type[FormatError],
    number: int, shape: str = "...",
) -> tuple[int, str]:
    """The 1-based player and the body of a ``<keyword> <i>: <body>`` line
    whose player is in 1..players and not yet ``given``."""
    head, sep, body = line.partition(":")
    player = read_index(head[len(keyword) :].strip()) if sep else None
    if player is None:
        raise error(f"expected '{keyword} <i>: {shape}'", number)
    if not 1 <= player <= players:
        raise error(f"player index {player} out of range 1..{players}", number)
    if player in given:
        raise error(f"duplicate {keyword} line for player {player}", number)
    return player, body


def require_players(
    players: int, given: Mapping[str, Container[int]], error: type[FormatError], number: int
) -> None:
    """Refuse the first player missing a line of a keyword; ``given`` maps
    each keyword to the players that have one."""
    for player in range(1, players + 1):
        for keyword, seen in given.items():
            if player not in seen:
                raise error(f"missing {keyword} for player {player}", number)


def check_names(
    names: Sequence[str], reserved: re.Pattern[str], what: str, error: type[FormatError], number: int | None = None
) -> None:
    """Refuse the first name a text format could not write back: an empty
    one, or one holding a character that ``reserved`` matches."""
    # one search over all the names: models are built by the thousand
    if "" in names or reserved.search("".join(names)):
        name = next(name for name in names if not name or reserved.search(name))
        fault = f"contains {reserved.search(name).group()!r}" if name else "is empty"
        raise error(f"{what} {name!r} {fault}", number)


def _parse_rational(text: str) -> Fraction:
    # Fraction also reads Unicode digits, '_' separators and exponents, and
    # '1e999999999' alone would build a billion-digit integer; what is left
    # is [+-]digits[/digits] and decimals, in ASCII
    if text.isascii() and not any(c in text for c in "_eE"):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"bad rational {text!r}")


def parse_game(text: str) -> Game:
    """Parse the line-oriented game format.

    ::

        # comment
        players: 2
        strategies 1: U D
        strategies 2: L R
        payoff U L : 1 1
        payoff U R : 1 0
        ...

    The player count and indices are ASCII digits.  Payoffs are integers,
    fractions like ``5/2`` or plain decimals like ``2.5``, in ASCII digits;
    exponent notation and ``_`` separators are refused.  Every profile
    needs exactly one payoff line.  Raises :class:`GameFormatError` with
    the 1-based line on malformed input; a missing line is reported one
    past the end.
    """
    n: int | None = None
    strategies: dict[int, tuple[str, ...]] = {}
    payoffs: dict[Profile, tuple[Fraction, ...]] = {}
    # a game repeats a few names and payoff values many times: names are
    # interned and equal payoff texts share one Fraction
    rationals: dict[str, Fraction] = {}

    for lineno, line, _ in records(text):
        if line.startswith("players:"):
            if n is not None:
                raise GameFormatError("duplicate players line", lineno)
            body = line[len("players:") :].strip()
            n = read_index(body)
            if n is None:
                raise GameFormatError(f"bad player count {body!r}", lineno)
            if n == 0:
                raise GameFormatError("zero players", lineno)
        elif line.startswith("strategies"):
            if n is None:
                raise GameFormatError("players line must come first", lineno)
            player, body = player_line(
                line, "strategies", n, strategies, GameFormatError, lineno, "names..."
            )
            names = tuple(map(sys.intern, body.split()))
            if not names:
                raise GameFormatError(f"player {player} has no strategies", lineno)
            check_names(names, _STRATEGY_RESERVED, "strategy name", GameFormatError, lineno)
            if len(set(names)) != len(names):
                raise GameFormatError(f"duplicate strategy name for player {player}", lineno)
            strategies[player] = names
        elif line.startswith("payoff"):
            if n is None or len(strategies) != n:
                raise GameFormatError("payoff lines must follow all strategies lines", lineno)
            head, sep, body = line.partition(":")
            if not sep:
                raise GameFormatError("expected 'payoff <profile> : <values>'", lineno)
            profile = tuple(map(sys.intern, head[len("payoff") :].split()))
            if len(profile) != n:
                raise GameFormatError(f"profile needs {n} strategies", lineno)
            for i, s in enumerate(profile):
                if s not in strategies[i + 1]:
                    raise GameFormatError(f"unknown strategy {s!r} for player {i + 1}", lineno)
            if profile in payoffs:
                raise GameFormatError(f"duplicate payoff for profile {profile}", lineno)
            values = body.split()
            if len(values) != n:
                raise GameFormatError(f"expected {n} payoffs", lineno)
            try:
                for v in values:
                    if v not in rationals:
                        rationals[v] = _parse_rational(v)
                payoffs[profile] = tuple(rationals[v] for v in values)
            except ValueError as exc:
                raise GameFormatError(str(exc), lineno) from None
        else:
            raise GameFormatError(f"unrecognized line {line!r}", lineno)

    end = len(text.splitlines()) + 1
    if n is None:
        raise GameFormatError("missing players line", end)
    require_players(n, {"strategies": strategies}, GameFormatError, end)
    try:
        return Game(tuple(strategies[i] for i in range(1, n + 1)), payoffs)
    except GameFormatError as exc:
        raise GameFormatError(exc.message, end) from None


def format_game(game: Game) -> str:
    """Serialize a game back into the text format (canonical ordering)."""
    lines = [f"players: {game.n}"]
    for i in game.players:
        lines.append(f"strategies {i + 1}: " + " ".join(game.strategies[i]))
    for profile in game.profiles():
        values = " ".join(str(v) for v in game.payoffs[profile])
        lines.append("payoff " + " ".join(profile) + " : " + values)
    return "\n".join(lines) + "\n"


_BUNDLED: dict[str, Game] = {}


def bundled_game(name: str) -> Game:
    """A packaged reference game, e.g. ``fig2``; parsed once, then cached."""
    if name not in _BUNDLED:
        text = resources.files("epigame").joinpath("data", f"{name}.game").read_text()
        _BUNDLED[name] = parse_game(text)
    return _BUNDLED[name]


def bundled_games() -> tuple[Game, ...]:
    """The three packaged reference games, in figure order."""
    return tuple(bundled_game(name) for name in ("fig1_left", "fig1_right", "fig2"))
