"""Belief models over a strategic game: states, played strategies, possibility sets.

A belief model attaches to every state, for every player, the strategy that
player uses there and the set of states the player considers possible.
Possibility sets may be empty and need not contain the actual state.  Events
are plain sets of states here; ``game_of_event`` projects an event down to
the restriction of strategies actually played somewhere inside it.  The
modal evaluator works on state bitmasks instead and builds its contexts
itself; these set-based functions are what its reference is built from.
Validity sweeps enumerate and sample models in that mask form, in the
order and with the random draws of the model-building generators in
:mod:`epigame.oracles`.
:func:`parse_model` refuses at the offending line everything
:class:`BeliefModel` would refuse, so a model file's errors name their line.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Mapping

from .games import FormatError, Game, Restriction, check_names, player_line, records, require_players

Event = frozenset[str]

MAX_ENUM_STATES = 3

# what a state name may not hold, so that plays and possible lines can name it
_STATE_RESERVED = re.compile(r"[\s=,{}]")


class ModelFormatError(FormatError):
    """A malformed belief-model description."""


class EnumerationLimitError(ValueError):
    """An exhaustive enumeration of more than :data:`MAX_ENUM_STATES` states."""


@dataclass(frozen=True)
class BeliefModel:
    game: Game
    states: tuple[str, ...]
    plays: tuple[Mapping[str, str], ...]  # per player: state -> strategy
    possible: tuple[Mapping[str, Event], ...]  # per player: state -> event

    def __post_init__(self):
        if not self.states:
            raise ModelFormatError("state set must be non-empty")
        check_names(self.states, _STATE_RESERVED, "state name", ModelFormatError)
        if len(set(self.states)) != len(self.states):
            raise ModelFormatError("duplicate state name")
        if len(self.plays) != self.game.n or len(self.possible) != self.game.n:
            raise ModelFormatError("need plays and possible maps for every player")
        universe = set(self.states)
        for i in self.game.players:
            for state in self.states:
                if state not in self.plays[i]:
                    raise ModelFormatError(f"player {i + 1} has no strategy at {state}")
                strategy = self.plays[i][state]
                if strategy not in self.game.strategies[i]:
                    raise ModelFormatError(
                        f"unknown strategy {strategy!r} for player {i + 1} at {state}"
                    )
                if state not in self.possible[i]:
                    raise ModelFormatError(f"player {i + 1} has no possibility set at {state}")
                rogue = set(self.possible[i][state]) - universe
                if rogue:
                    raise ModelFormatError(f"unknown state {sorted(rogue)[0]!r}")

    def __hash__(self) -> int:
        # the generated hash chokes on the mapping fields
        return hash(
            (
                self.game,
                self.states,
                tuple(tuple(sorted(m.items())) for m in self.plays),
                tuple(tuple(sorted((s, tuple(sorted(e))) for s, e in m.items())) for m in self.possible),
            )
        )

    def strategy_of(self, player: int, state: str) -> str:
        return self.plays[player][state]

    def possible_at(self, player: int, state: str) -> Event:
        return frozenset(self.possible[player][state])

    @property
    def universe(self) -> Event:
        return frozenset(self.states)

    def ordered_event(self, event: Event) -> tuple[str, ...]:
        return tuple(s for s in self.states if s in event)


def game_of_event(model: BeliefModel, event: Event) -> Restriction:
    """The restriction of strategies played somewhere in the event.

    The reference path: :func:`epigame.oracles.naive_interpret` builds its
    contexts with it, and :mod:`epigame.modal` must agree with that."""
    sets = tuple(
        frozenset(model.strategy_of(i, state) for state in event)
        for i in model.game.players
    )
    return Restriction(model.game, sets)


def believes(model: BeliefModel, player: int, event: Event) -> Event:
    """States where everything the player considers possible lies in the event."""
    return frozenset(
        state for state in model.states if model.possible_at(player, state) <= event
    )


def everyone_believes(model: BeliefModel, event: Event) -> Event:
    result = model.universe
    for player in model.game.players:
        result &= believes(model, player, event)
    return result


@dataclass(frozen=True)
class CommonBeliefResult:
    event: Event
    chain: tuple[Event, ...]


def common_belief(model: BeliefModel, event: Event) -> CommonBeliefResult:
    """Intersection of all levels of iterated everyone-believes.

    The chain records each level up to (excluding) the first repeated value;
    since levels of a finite model must eventually repeat, intersecting the
    recorded levels already equals the full infinite intersection.  The
    value-repeat stop matters: without transitivity the levels need not
    shrink monotonically and may cycle.
    """
    chain: list[Event] = []
    seen: set[Event] = set()
    level = everyone_believes(model, event)
    while level not in seen:
        seen.add(level)
        chain.append(level)
        level = everyone_believes(model, level)
    result = model.universe
    for entry in chain:
        result &= entry
    return CommonBeliefResult(result, tuple(chain))


# ---------------------------------------------------------------------------
# Enumeration and sampling, for validity sweeps


# A model in mask form, as the modal evaluator reads it: ``plays[i][k]`` is
# the index of player i's strategy at state k, and ``possible[i][k]`` the
# mask of the states player i considers possible there (state k is bit k).
Masks = tuple[tuple[int, ...], ...]


def enumerate_model_masks(game: Game, max_states: int) -> Iterator[tuple[Masks, Masks]]:
    """The models of :func:`epigame.oracles.enumerate_belief_models` as
    (plays, possible) masks, in the same order; consecutive models with the
    same plays share one plays tuple.  Refuses more than
    :data:`MAX_ENUM_STATES` states at once, not at the first model."""
    if max_states > MAX_ENUM_STATES:
        raise EnumerationLimitError(f"exhaustive enumeration is limited to {MAX_ENUM_STATES} states")
    return _model_masks(game, max_states)


def _model_masks(game: Game, max_states: int) -> Iterator[tuple[Masks, Masks]]:
    for count in range(1, max_states + 1):
        # state k's possibility sets in games.subsets() order: the mask itself
        poss_choices = list(product(range(1 << count), repeat=count))
        play_choices = [list(product(range(len(names)), repeat=count)) for names in game.strategies]
        for plays in product(*play_choices):
            for possible in product(poss_choices, repeat=game.n):
                yield plays, possible


def sample_model_masks(
    game: Game, count: int, max_states: int, seed: int = 0
) -> Iterator[tuple[Masks, Masks]]:
    """Seeded random models in mask form: uniform state count in
    1..max_states, uniform strategies, and each possibility set drawn
    uniformly, one coin per state."""
    rng = random.Random(seed)
    indices = [tuple(range(len(names))) for names in game.strategies]
    for _ in range(count):
        size = rng.randint(1, max_states)
        plays = tuple(tuple(rng.choice(choices) for _ in range(size)) for choices in indices)
        possible = tuple(
            tuple(sum(1 << k for k in range(size) if rng.random() < 0.5) for _ in range(size))
            for _ in game.players
        )
        yield plays, possible


def model_of_masks(game: Game, plays: Masks, possible: Masks) -> BeliefModel:
    """The belief model over states ``w1``, ``w2``, ... that the masks describe."""
    states = tuple(f"w{k + 1}" for k in range(len(plays[0])))

    def event(mask: int) -> Event:
        return frozenset(s for k, s in enumerate(states) if mask >> k & 1)

    return BeliefModel(
        game,
        states,
        tuple(dict(zip(states, map(names.__getitem__, row))) for names, row in zip(game.strategies, plays)),
        tuple(dict(zip(states, map(event, row))) for row in possible),
    )


# ---------------------------------------------------------------------------
# Text format


def parse_model(text: str, game: Game) -> BeliefModel:
    """Parse the line-oriented belief-model format.

    ::

        states: w1 w2
        plays 1: w1=U w2=D
        possible 1: w1={w1,w2} w2={}

    Player indices are ASCII digits, and possibility sets are written
    without internal spaces.  Every line names each state once.  Raises
    :class:`ModelFormatError` with the 1-based line on malformed input,
    including what :class:`BeliefModel` would refuse; a missing line is
    reported one past the end.
    """
    states: tuple[str, ...] | None = None
    plays: dict[int, dict[str, str]] = {}
    possible: dict[int, dict[str, Event]] = {}

    for lineno, line, _ in records(text):
        if line.startswith("states:"):
            if states is not None:
                raise ModelFormatError("duplicate states line", lineno)
            states = tuple(line[len("states:") :].split())
            if not states:
                raise ModelFormatError("state set must be non-empty", lineno)
            check_names(states, _STATE_RESERVED, "state name", ModelFormatError, lineno)
            if len(set(states)) != len(states):
                raise ModelFormatError("duplicate state name", lineno)
        elif line.startswith("plays") or line.startswith("possible"):
            if states is None:
                raise ModelFormatError("states line must come first", lineno)
            kind = "plays" if line.startswith("plays") else "possible"
            target = plays if kind == "plays" else possible
            player, body = player_line(line, kind, game.n, target, ModelFormatError, lineno)
            entries: dict = {}
            for chunk in body.split():
                state, sep, value = chunk.partition("=")
                if not sep or not state:
                    raise ModelFormatError(f"expected 'state=value', got {chunk!r}", lineno)
                if state not in states:
                    raise ModelFormatError(f"unknown state {state!r}", lineno)
                if state in entries:
                    raise ModelFormatError(f"duplicate entry for state {state!r}", lineno)
                if kind == "plays":
                    if value not in game.strategies[player - 1]:
                        raise ModelFormatError(
                            f"unknown strategy {value!r} for player {player} at {state}", lineno
                        )
                    entries[state] = value
                elif not (value.startswith("{") and value.endswith("}")):
                    raise ModelFormatError(f"expected a state set, got {value!r}", lineno)
                else:
                    members = frozenset(s for s in value[1:-1].split(",") if s)
                    rogue = members.difference(states)
                    if rogue:
                        raise ModelFormatError(f"unknown state {sorted(rogue)[0]!r}", lineno)
                    entries[state] = members
            omitted = next((s for s in states if s not in entries), None)
            if omitted is not None:
                what = "strategy" if kind == "plays" else "possibility set"
                raise ModelFormatError(f"player {player} has no {what} at {omitted}", lineno)
            target[player] = entries
        else:
            raise ModelFormatError(f"unrecognized line {line!r}", lineno)

    end = len(text.splitlines()) + 1
    if states is None:
        raise ModelFormatError("missing states line", end)
    require_players(game.n, {"plays": plays, "possible": possible}, ModelFormatError, end)
    return BeliefModel(
        game,
        states,
        tuple(plays[i] for i in range(1, game.n + 1)),
        tuple(possible[i] for i in range(1, game.n + 1)),
    )


def format_model(model: BeliefModel) -> str:
    """Serialize a belief model back into the text format."""
    lines = ["states: " + " ".join(model.states)]
    for i in model.game.players:
        pairs = " ".join(f"{s}={model.strategy_of(i, s)}" for s in model.states)
        lines.append(f"plays {i + 1}: {pairs}")
    for i in model.game.players:
        pairs = " ".join(
            "{}={{{}}}".format(s, ",".join(model.ordered_event(model.possible_at(i, s))))
            for s in model.states
        )
        lines.append(f"possible {i + 1}: {pairs}")
    return "\n".join(lines) + "\n"
