"""Belief models over a strategic game: states, played strategies, possibility sets.

A belief model attaches to every state, for every player, the strategy that
player uses there and the set of states the player considers possible.
Possibility sets may be empty and need not contain the actual state.  A
:class:`BeliefModel` holds both in the mask form that the modal evaluator
and the validity sweeps read: a strategy index and a state bitmask per
player and state.  Names appear only at the edges: in
:meth:`~BeliefModel.strategy_of`, in events (frozensets of state names),
and in the text format.  ``game_of_event`` projects an event down to the
restriction of strategies played somewhere inside it; the set-based belief
operators are in :mod:`epigame.oracles`, next to the model generators.
Sampled validity sweeps draw their models in :mod:`epigame.modal`, in the
evaluator's own form.
:func:`parse_model` refuses at the offending line everything
:class:`BeliefModel` would refuse, so a model file's errors name their line.
"""

from __future__ import annotations

import re
from functools import cache

from .games import FormatError, Game, Restriction, check_names, player_line, records, require_players
from .value import Value, setfield

Event = frozenset[str]

# A model in mask form: ``plays[i][k]`` is the index of player i's strategy
# at state k, and ``possible[i][k]`` the mask of the states player i
# considers possible there (state k is bit k).
Masks = tuple[tuple[int, ...], ...]

MAX_ENUM_STATES = 3

# what a state name may not hold, so that plays and possible lines can name it
_STATE_RESERVED = re.compile(r"[\s=,{}]")


class ModelFormatError(FormatError):
    """A malformed belief-model description."""


class EnumerationLimitError(ValueError):
    """An exhaustive enumeration of more than :data:`MAX_ENUM_STATES` states,
    or a validity check over more than
    :data:`~epigame.modal.MAX_EXHAUSTIVE_MODELS` models."""


class BeliefModel(Value):
    """A belief model over ``game`` with the named ``states``, in the mask
    form of :data:`Masks`: ``plays`` holds a row of strategy indices per
    player, and ``possible`` a row of state masks per player."""

    game: Game
    states: tuple[str, ...]
    plays: Masks
    possible: Masks

    def __init__(self, game: Game, states: tuple[str, ...], plays: Masks, possible: Masks):
        setfield(self, "game", game)
        setfield(self, "states", states)
        setfield(self, "plays", plays)
        setfield(self, "possible", possible)
        if not states:
            raise ModelFormatError("state set must be non-empty")
        check_names(states, _STATE_RESERVED, "state name", ModelFormatError)
        if len(set(states)) != len(states):
            raise ModelFormatError("duplicate state name")
        if len(self.plays) != self.game.n or len(self.possible) != self.game.n:
            raise ModelFormatError("need plays and possible rows for every player")
        full = (1 << len(states)) - 1
        for i, names in enumerate(self.game.strategies):
            for row, entry, value, top in (
                (self.plays[i], "strategy", "strategy index", len(names) - 1),
                (self.possible[i], "possibility set", "possibility mask", full),
            ):
                if len(row) < len(states):
                    raise ModelFormatError(f"player {i + 1} has no {entry} at {states[len(row)]}")
                if len(row) > len(states):
                    raise ModelFormatError(f"player {i + 1} has a {entry} past the last state {states[-1]}")
                # one min and max per row: models are built by the thousand
                if min(row) < 0 or max(row) > top:
                    k = next(k for k, v in enumerate(row) if not 0 <= v <= top)
                    raise ModelFormatError(f"player {i + 1}'s {value} at {states[k]} is {row[k]}, outside 0..{top}")

    def strategy_of(self, player: int, state: str) -> str:
        return self.game.strategies[player][self.plays[player][self.states.index(state)]]

    def possible_at(self, player: int, state: str) -> Event:
        mask = self.possible[player][self.states.index(state)]
        return frozenset(s for k, s in enumerate(self.states) if mask >> k & 1)

    @property
    def universe(self) -> Event:
        return frozenset(self.states)

    def ordered_event(self, event: Event) -> tuple[str, ...]:
        return tuple(s for s in self.states if s in event)


def game_of_event(model: BeliefModel, event: Event) -> Restriction:
    """The restriction of strategies played somewhere in the event.

    The reference path: :func:`epigame.oracles.naive_interpret` builds its
    contexts with it, and :mod:`epigame.modal` must agree with that."""
    return model.game.restriction(
        *({model.strategy_of(i, state) for state in event} for i in model.game.players)
    )


@cache
def _state_names(count: int) -> tuple[str, ...]:
    return tuple(f"w{k + 1}" for k in range(count))


def model_of_masks(game: Game, plays: Masks, possible: Masks) -> BeliefModel:
    """The belief model over states ``w1``, ``w2``, ... that the masks
    describe; models of one state count share one tuple of names."""
    return BeliefModel(game, _state_names(len(plays[0])), plays, possible)


# ---------------------------------------------------------------------------
# Text format


def parse_model(text: str, game: Game) -> BeliefModel:
    """Parse the line-oriented belief-model format.

    ::

        states: w1 w2
        plays 1: w1=U w2=D
        possible 1: w1={w1,w2} w2={}

    Player indices are ASCII digits, and possibility sets are written
    without internal spaces, empty members or repeated members.  Every line
    names each state once.  Raises :class:`ModelFormatError` with the
    1-based line on malformed input, including what :class:`BeliefModel`
    would refuse; a missing line is reported one past the end.
    """
    states: tuple[str, ...] | None = None
    plays: dict[int, tuple[int, ...]] = {}
    possible: dict[int, tuple[int, ...]] = {}

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
            names = game.strategies[player - 1]
            entries: dict[str, int] = {}
            for chunk in body.split():
                state, sep, value = chunk.partition("=")
                if not sep or not state:
                    raise ModelFormatError(f"expected 'state=value', got {chunk!r}", lineno)
                if state not in states:
                    raise ModelFormatError(f"unknown state {state!r}", lineno)
                if state in entries:
                    raise ModelFormatError(f"duplicate entry for state {state!r}", lineno)
                if kind == "plays":
                    if value not in names:
                        raise ModelFormatError(
                            f"unknown strategy {value!r} for player {player} at {state}", lineno
                        )
                    entries[state] = names.index(value)
                elif not (value.startswith("{") and value.endswith("}")):
                    raise ModelFormatError(f"expected a state set, got {value!r}", lineno)
                else:
                    members = value[1:-1].split(",") if value != "{}" else []
                    if "" in members:
                        raise ModelFormatError(f"empty member in the state set {value!r}", lineno)
                    rogue = set(members).difference(states)
                    if rogue:
                        raise ModelFormatError(f"unknown state {sorted(rogue)[0]!r}", lineno)
                    if len(set(members)) != len(members):
                        again = next(s for k, s in enumerate(members) if s in members[:k])
                        raise ModelFormatError(f"repeated member {again!r} in the state set {value!r}", lineno)
                    entries[state] = sum(1 << k for k, s in enumerate(states) if s in members)
            omitted = next((s for s in states if s not in entries), None)
            if omitted is not None:
                what = "strategy" if kind == "plays" else "possibility set"
                raise ModelFormatError(f"player {player} has no {what} at {omitted}", lineno)
            target[player] = tuple(map(entries.__getitem__, states))
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
    states = model.states
    lines = ["states: " + " ".join(states)]
    for i, (names, row) in enumerate(zip(model.game.strategies, model.plays)):
        lines.append(f"plays {i + 1}: " + " ".join(f"{s}={names[p]}" for s, p in zip(states, row)))
    for i, row in enumerate(model.possible):
        pairs = " ".join(
            "{}={{{}}}".format(s, ",".join(t for v, t in enumerate(states) if mask >> v & 1))
            for s, mask in zip(states, row)
        )
        lines.append(f"possible {i + 1}: {pairs}")
    return "\n".join(lines) + "\n"
