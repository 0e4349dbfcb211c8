"""Modal fixpoint language over belief models.

Formulas combine rationality atoms ``rat(c, i)`` (player i's strategy
satisfies condition c in the subgame induced by what i considers possible),
belief modalities ``[i]``, optimality modalities ``O(c, i)`` (the condition
holds with the argument event's induced subgame as context), and a greatest
fixpoint ``nu X . psi`` over the single set variable X.  Omitting a player
index bundles a node over all players by conjunction, so formulas stay
independent of the player count; ``box psi`` and ``CB psi`` (common belief,
``nu X . box (X and psi)``) are parsed the same way.  ``forall X . psi`` is
the second-order quantifier.  Negation, conjunction and the parser skeleton
are the condition language's, from :mod:`epigame.conditions`.

The fixpoint is computed by iterating the body intersected with the current
set from the full state space; that always terminates and agrees with the
union of post-fixpoints whenever the body is positive in X.  Otherwise it is
the contracted iteration, which ``THM-IMP``'s ``nu X . O(lsd) X`` relies on.
A free X denotes ``env``, the whole state space by default; validity
checks read it universally instead, as ``forall X``.  A ``forall X``
enumerates every event, so it is refused on models of more than
:data:`MAX_SECOND_ORDER_STATES` states.

A formula is compiled once per (formula, registry, game) into one program
of closures, cached on the game in :attr:`~epigame.games.Game.modal_cache`.
Compiling resolves each condition's :class:`SurvivorTable` (in the same
cache, shared by every model of the game) and player range, and makes
every refusal, so :func:`interpret` and both kinds of validity check
refuse alike.  A context is one ``int``: player i's strategy s is bit
``offset_i + s``, ``offset_i`` being the strategy count of the players
before i (:func:`_layout`, built once per game shape).  A state's profile
is then one int, and the context of an event is the OR of its states'
profiles.  A survivor table keys its memo on that int and unpacks it into
the per-player masks of :attr:`~epigame.games.Restriction.masks`, the form
a condition's :func:`~epigame.optimality.plan` reads, only on a miss.  The
program runs on a model in either of two forms.  Each gives ``rat``,
belief, ``O`` and the constant events that ``forall X`` ranges over;
negation, conjunction, X and the fixpoint are one closure for both,
written with ``^``, ``&`` and truth, and a conjunction skips its right
side when its left is empty.

A :class:`_Model` is one model, whose events are ``int`` bitmasks of
states.  It memoises its contexts and the rationality atoms, and the game
keeps the last model interpreted, so calls on one model share those memos;
``O(c, i)`` asks the survivor table in the event's context directly.
``rat(c, i)`` is tested state by state: the strategy played at k must
survive in the context of the states i considers possible at k, and a
``rat(c)`` over every player leaves a state at the first player who fails
there.
:func:`interpret` runs on it, and so do sampled validity checks, whose
sampler, :func:`_sample_models`, draws each model straight into this form:
it reads the Mersenne Twister stream word by word, ORs each state's
profile int while it draws the plays, and cuts the possibility rows out of
one ``int`` of coins.  A draw then costs about 5 µs on a 2-player game
with up to 4 states, plus the program's run on the fresh model, whose
survivor lookups hit the game's tables once their contexts have been seen.
A :class:`~epigame.beliefs.BeliefModel` holds the same masks, so loading
one builds only its profile ints; state names appear only at the
boundary, in the ``env`` argument and the result of :func:`interpret`.

A :class:`_Block` is every model of a plays block at once, for exhaustive
validity checks: the run of consecutive models, in
:func:`~epigame.oracles.enumerate_model_masks` order, that share their
plays.  Its event is a :class:`_Lanes`, one ``int`` per state, a bit vector
whose bit t, or lane t, stands for the block's model t.  The players'
possibility rows are fixed digits of t, so "player i considers v possible
at k" is a periodic lane pattern, computed once per (player count, state
count).  ``rat(c, i)`` at state k is the OR of the "possibility set equals
S" patterns over the events S whose context keeps the strategy played at
k, read from the survivor tables; ``O(c, i) E`` is the same OR over "E
equals S" vectors.  A fixpoint is exact because each lane is its own
model's decreasing sequence.  The verdict is the AND over the states; its
lowest clear lane, added to the block's offset, gives the first
countermodel and the count of models checked, so both match a sweep of
one model at a time.  A vector holds at most ``2**BLOCK_BITS`` lanes: a
larger block, such as one of three players at three states, is swept in
slices that fix the leading players' rows.  One model is not run as a
block of one lane, nor a block event held as one flat ``int``: both were
measured slower.
"""

from __future__ import annotations

import random
import re
import weakref
from functools import cache, partial, reduce
from itertools import accumulate, product
from math import prod
from operator import and_, or_, xor
from typing import Callable, Iterator

from .beliefs import MAX_ENUM_STATES, BeliefModel, EnumerationLimitError, Event, Masks, model_of_masks
from .conditions import (
    NAME, ConditionInfo, ConditionRegistry, Conj, FormulaO, Neg, _DescentParser, is_name,
)
from .games import Game, read_index
from .optimality import plan
from .value import Value, setfield


class ModalError(ValueError):
    pass


#: The most states a model may have where ``forall X`` (or the post-fixpoint
#: reference) enumerates every event: 2**20 events per quantifier.  Sampled
#: validity checks keep to it too, as each drawn model costs K**2 coins per
#: player.
MAX_SECOND_ORDER_STATES = 20

#: The entries a :attr:`~epigame.games.Game.modal_cache` may hold before it
#: is emptied to compile one more program: as many as the ``plan`` cache keeps.
MAX_CACHED_PROGRAMS = 256

#: The most models an exhaustive validity check sweeps, counted before any
#: work by :func:`exhaustive_model_count`: a 5x5 game's 4.1e9 models at 3
#: states take about 11 s, while an 8x8 game's 6.9e10 would take minutes.
MAX_EXHAUSTIVE_MODELS = 10**10

#: log2 of the most models one lane vector of an exhaustive sweep holds.  A
#: plays block with more models is swept in slices that each fix the
#: leading players' possibility rows.
BLOCK_BITS = 18


# ---------------------------------------------------------------------------
# AST. ``player`` is 0-based internally; None bundles over all players.


class Rat(Value):
    condition: str
    player: int | None

    def __init__(self, condition: str, player: int | None = None):
        setfield(self, "condition", condition)
        setfield(self, "player", player)


class Box(Value):
    player: int | None
    body: FormulaNu

    def __init__(self, player: int | None, body: FormulaNu):
        setfield(self, "player", player)
        setfield(self, "body", body)


class Opt(Value):
    condition: str
    player: int | None
    body: FormulaNu

    def __init__(self, condition: str, player: int | None, body: FormulaNu):
        setfield(self, "condition", condition)
        setfield(self, "player", player)
        setfield(self, "body", body)


class Nu(Value):
    body: FormulaNu

    def __init__(self, body: FormulaNu):
        setfield(self, "body", body)


class SetVar(Value):
    pass

class ForallX(Value):
    body: FormulaNu

    def __init__(self, body: FormulaNu):
        setfield(self, "body", body)


FormulaNu = Rat | Neg | Conj | Box | Opt | Nu | SetVar | ForallX

X = SetVar()


def imp(antecedent: FormulaNu, consequent: FormulaNu) -> FormulaNu:
    """Implication in the negation/conjunction core."""
    return Neg(Conj(antecedent, Neg(consequent)))


def match_imp(formula: FormulaNu) -> tuple[FormulaNu, FormulaNu] | None:
    """Destructure a formula of implication shape, if it has one."""
    if (
        isinstance(formula, Neg)
        and isinstance(formula.body, Conj)
        and isinstance(formula.body.right, Neg)
    ):
        return formula.body.left, formula.body.right.body
    return None


def common_belief_formula(body: FormulaNu) -> FormulaNu:
    """``CB psi``: the greatest fixpoint of everyone believing X-and-psi."""
    return Nu(Box(None, Conj(X, body)))


# ---------------------------------------------------------------------------
# Parser

class _NuParser(_DescentParser):
    token_re = re.compile(rf"->|[()\[\].,]|{NAME}|[0-9]+|\S")

    def operand(self, tok: str) -> tuple[FormulaNu, int]:
        if tok == "box":
            self.advance()
            return self.over(partial(Box, None), self.unary())
        if tok == "[":
            self.advance()
            player = self.player_index()
            self.expect("]")
            return self.over(partial(Box, player), self.unary())
        if tok == "CB":
            self.advance()
            return self.over(Nu, self.over(partial(Box, None), self.conj((X, 1), self.unary())))
        if tok == "O":
            self.advance()
            name, player = self.condition_ref()
            return self.over(partial(Opt, name, player), self.unary())
        if tok == "rat":
            self.advance()
            name, player = self.condition_ref()
            return Rat(name, player), 1
        if tok == "nu":
            self.advance()
            self.expect("X")
            self.expect(".")
            return self.over(Nu, self.implication())
        if tok == "forall":
            self.advance()
            self.expect("X")
            self.expect(".")
            return self.over(ForallX, self.implication())
        if tok == "X":
            self.advance()
            return X, 1
        raise self.error(f"unexpected {tok!r}" if tok else "unexpected end of formula")

    def condition_ref(self) -> tuple[str, int | None]:
        self.expect("(")
        name = self.peek()
        if not is_name(name):
            raise self.error("expected a condition name")
        self.advance()
        player = None
        if self.peek() == ",":
            self.advance()
            player = self.player_index()
        self.expect(")")
        return name, player

    def player_index(self) -> int:
        index = read_index(self.peek())
        if not index:
            raise self.error("expected a 1-based player index")
        self.advance()
        return index - 1


def parse_nu(text: str) -> FormulaNu:
    """Parse a modal formula.  Player indices are 1-based in the source."""
    return _NuParser(text).parse()


def pretty_nu(formula: FormulaNu) -> str:
    """Readable rendering; folds implications and common belief back to
    their surface forms, so the output reparses to the same tree."""
    parts = match_imp(formula)
    if parts is not None:
        return f"({pretty_nu(parts[0])} -> {pretty_nu(parts[1])})"
    if (
        isinstance(formula, Nu)
        and isinstance(formula.body, Box)
        and formula.body.player is None
        and isinstance(formula.body.body, Conj)
        and isinstance(formula.body.body.left, SetVar)
    ):
        return f"CB {pretty_nu(formula.body.body.right)}"
    if isinstance(formula, Rat):
        tag = formula.condition if formula.player is None else f"{formula.condition}, {formula.player + 1}"
        return f"rat({tag})"
    if isinstance(formula, Neg):
        return f"not {pretty_nu(formula.body)}"
    if isinstance(formula, Conj):
        return f"({pretty_nu(formula.left)} and {pretty_nu(formula.right)})"
    if isinstance(formula, Box):
        prefix = "box" if formula.player is None else f"[{formula.player + 1}]"
        return f"{prefix} {pretty_nu(formula.body)}"
    if isinstance(formula, Opt):
        tag = formula.condition if formula.player is None else f"{formula.condition}, {formula.player + 1}"
        return f"O({tag}) {pretty_nu(formula.body)}"
    if isinstance(formula, Nu):
        # binders extend maximally right, so they are never printed bare
        return f"(nu X . {pretty_nu(formula.body)})"
    if isinstance(formula, SetVar):
        return "X"
    return f"(forall X . {pretty_nu(formula.body)})"


# ---------------------------------------------------------------------------
# Structural helpers


def iter_subformulas(formula: FormulaNu) -> Iterator[FormulaNu]:
    yield formula
    if isinstance(formula, (Neg, Box, Opt, Nu, ForallX)):
        yield from iter_subformulas(formula.body)
    elif isinstance(formula, Conj):
        yield from iter_subformulas(formula.left)
        yield from iter_subformulas(formula.right)


def nu_free(formula: FormulaNu) -> bool:
    return not any(isinstance(f, Nu) for f in iter_subformulas(formula))


def has_free_x(formula: FormulaNu) -> bool:
    if isinstance(formula, SetVar):
        return True
    if isinstance(formula, (Nu, ForallX)):
        return False  # rebinds X
    if isinstance(formula, Conj):
        return has_free_x(formula.left) or has_free_x(formula.right)
    if isinstance(formula, (Neg, Box, Opt)):
        return has_free_x(formula.body)
    return False


def substitute_x(formula: FormulaNu, replacement: FormulaNu) -> FormulaNu:
    """Replace the free occurrences of X.  Occurrences under a nested binder
    are bound there and left alone; since any position below a binder is
    bound, the replacement can never be captured."""
    if isinstance(formula, SetVar):
        return replacement
    if isinstance(formula, (Nu, ForallX)):
        return formula
    if isinstance(formula, Neg):
        return Neg(substitute_x(formula.body, replacement))
    if isinstance(formula, Conj):
        return Conj(
            substitute_x(formula.left, replacement),
            substitute_x(formula.right, replacement),
        )
    if isinstance(formula, Box):
        return Box(formula.player, substitute_x(formula.body, replacement))
    if isinstance(formula, Opt):
        return Opt(formula.condition, formula.player, substitute_x(formula.body, replacement))
    return formula


def positive_in_x(formula: FormulaNu, registry: ConditionRegistry) -> bool:
    """Is every free X under an even number of negations, and below
    optimality modalities only when their condition is positive?"""

    def walk(f: FormulaNu, parity: int, opt_ok: bool) -> bool:
        if isinstance(f, SetVar):
            return parity % 2 == 0 and opt_ok
        if isinstance(f, (Nu, ForallX)):
            return True  # inner occurrences are bound
        if isinstance(f, Neg):
            return walk(f.body, parity + 1, opt_ok)
        if isinstance(f, Conj):
            return walk(f.left, parity, opt_ok) and walk(f.right, parity, opt_ok)
        if isinstance(f, Box):
            return walk(f.body, parity, opt_ok)
        if isinstance(f, Opt):
            ok = opt_ok and registry.get(f.condition).analysis.positive
            return walk(f.body, parity, ok)
        return True

    return walk(formula, 0, True)


# ---------------------------------------------------------------------------
# Interpretation


@cache
def _layout(sizes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Per player, the bit of each strategy in a packed context: player i's
    strategy s is bit ``offset_i + s``, ``offset_i`` being the strategy
    count of the players before i."""
    offsets = accumulate(sizes[:-1], initial=0)
    return tuple(tuple(1 << offset + s for s in range(size)) for offset, size in zip(offsets, sizes))


def _game_layout(game: Game) -> tuple[tuple[int, ...], ...]:
    return _layout(tuple(map(len, game.strategies)))


def _profiles(layout: tuple[tuple[int, ...], ...], plays: Masks) -> tuple[int, ...]:
    """Each state's profile as a packed context: its players' strategy bits."""
    return tuple(map(sum, zip(*(map(bits.__getitem__, row) for bits, row in zip(layout, plays)))))


class SurvivorTable:
    """One condition's survivors in one game: :meth:`survivors` is the
    mask of player i's strategies that satisfy it in a packed context (see
    :func:`_layout`), computed once per (player, context) by the
    condition's :func:`~epigame.optimality.plan`, which reads the context
    unpacked into per-player masks.  Belief models of one game keep asking
    about the same few contexts, which is what makes the memo pay; the
    operators and lemma admission visit each context once and call the plan
    directly."""

    __slots__ = ("plan", "prefs", "fields", "memo")

    def __init__(self, game: Game, formula: FormulaO):
        # holds no reference to the game, which holds the table
        self.plan = plan(formula)
        self.prefs = tuple(map(game.preferences, game.players))
        # (offset, mask) of each player's strategies in a packed context
        self.fields = tuple(
            (bits[0].bit_length() - 1, (1 << len(bits)) - 1) for bits in _layout(self.prefs[0].sizes)
        )
        self.memo: tuple[dict[int, int], ...] = tuple({} for _ in game.players)

    def survivors(self, player: int, context: int) -> int:
        memo = self.memo[player]
        found = memo.get(context)
        if found is None:
            masks = tuple(context >> offset & mask for offset, mask in self.fields)
            found = memo[context] = self.plan(self.prefs[player], player, masks)
        return found


def survivor_table(game: Game, formula: FormulaO) -> SurvivorTable:
    """The game's :class:`SurvivorTable` for a condition: one per
    (game, condition formula), kept in :attr:`Game.modal_cache` under the
    formula and shared by every belief model over the game."""
    cache = game.modal_cache
    table = cache.get(formula)
    if table is None:
        table = cache[formula] = SurvivorTable(game, formula)
    return table


class _Model:
    """One belief model in state-mask form: every event is an ``int``
    bitmask over its states, state k being bit k.

    ``plays[i][k]`` is the index of player i's strategy at state k,
    ``profiles[k]`` state k's profile as a packed context (see
    :func:`_profiles`), and ``possible[i]`` is player i's possibility row,
    a tuple whose k-th mask holds the states i considers possible at state
    k.  The model memoises its contexts and the ``rational`` states of
    each tuple of (survivor table, player) asks, where every asked player's
    strategy survives in the context that player considers possible; every
    program run on the model shares both.
    """

    __slots__ = ("universe", "plays", "profiles", "possible", "rational", "contexts")

    def __init__(self, plays: Masks, profiles: tuple[int, ...], possible: Masks):
        self.universe = (1 << len(profiles)) - 1
        self.plays = plays
        self.profiles = profiles
        self.possible = possible
        self.contexts: dict[int, int] = {}
        self.rational: dict[tuple[tuple[SurvivorTable, int], ...], int] = {}

    def context(self, event: int) -> int:
        """The packed context of the strategies played in the event: the
        OR of its states' profiles."""
        # The memo stays although a fresh sampled model mostly misses it:
        # computing the OR on every call made belief req_per_s 2.7-10.5%
        # slower in 7 of 7 alternating 8 s pairs (2-core machine), and moved
        # cli between -4.5% and +0.8%.
        found = self.contexts.get(event)
        if found is None:
            found = 0
            for k, profile in enumerate(self.profiles):
                if event >> k & 1:
                    found |= profile
            self.contexts[event] = found
        return found

    def rat(self, asks: tuple[tuple[SurvivorTable, int], ...]) -> int:
        """The states where every (table, player) of ``asks`` is rational:
        at state k, the strategy played there survives in the context of
        the states the player considers possible there.  Each state stops
        at the first ask whose player is not rational there."""
        held = self.rational.get(asks)
        if held is None:
            context, plays, possible = self.context, self.plays, self.possible
            held = 0
            for k in range(len(self.profiles)):
                for table, player in asks:
                    if not table.survivors(player, context(possible[player][k])) >> plays[player][k] & 1:
                        break
                else:
                    held |= 1 << k
            self.rational[asks] = held
        return held

    def box(self, players: range | tuple[int, ...], event: int) -> int:
        """The states where every one of the players believes the event."""
        outside = ~event
        result = self.universe
        for i in players:
            for k, seen in enumerate(self.possible[i]):
                if seen & outside:
                    result &= ~(1 << k)
        return result

    def opt(self, asks: tuple[tuple[SurvivorTable, int], ...], event: int) -> int:
        """The states where every (table, player) of ``asks`` is optimal in
        the event's context."""
        context, result = self.context(event), self.universe
        for table, player in asks:
            survivors = table.survivors(player, context)
            result &= sum(1 << k for k, s in enumerate(self.plays[player]) if survivors >> s & 1)
        return result

    def constants(self) -> range:
        """Every event, for ``forall X``."""
        return range(self.universe + 1)


def _load(model: BeliefModel) -> _Model:
    """The model in mask form.  Its game keeps the last model loaded, so a
    run of calls on one model shares its memos."""
    # Without this cache (and the context memo), belief fell from about 5,700
    # to 3,960-4,260 req/s, 25-30% slower (8 s runs, 2-core machine).
    cache = model.game.modal_cache
    last = cache.get(None)
    if last is not None and last[0]() is model:
        return last[1]
    loaded = _Model(model.plays, _profiles(_game_layout(model.game), model.plays), model.possible)
    # weakly held: the model holds the game, which would otherwise keep both
    # alive in a cycle
    cache[None] = (weakref.ref(model), loaded)
    return loaded


class _Lanes(tuple):
    """An event of a :class:`_Block`: one lane vector per state, whose bit
    t holds where the state is in the event in the block's model t.  ``&``
    and ``^`` act lane by lane, and the event is true when any lane holds,
    so a program reads it as it reads a state mask."""

    __slots__ = ()

    def __and__(self, other: _Lanes) -> _Lanes:
        return _Lanes(map(and_, self, other))

    def __xor__(self, other: _Lanes) -> _Lanes:
        return _Lanes(map(xor, self, other))

    def __bool__(self) -> bool:
        return any(self)


def _minterms(event: tuple[int, ...], full: int) -> list[int]:
    """``terms[S]``: the lanes where the per-state vectors of ``event``
    hold at exactly the states of mask S, by Shannon expansion."""
    terms = [full]
    for inside in event:
        outside = full ^ inside
        terms = [t & outside for t in terms] + [t & inside for t in terms]
    return terms


@cache
def _lanes(players: int, states: int) -> tuple[int, tuple, tuple]:
    """The lane patterns of ``players`` free possibility rows over
    ``states`` states, shared by every game.  Lane t is the model whose rows
    are the digits of t in :func:`~epigame.oracles.enumerate_model_masks`
    order: the first free player's row is the most significant, and within
    a row so is state 0's set, state v being bit v.  Returns the full
    vector, ``seen[f][k][v]``, the lanes where the f-th free player
    considers v possible at k, and ``rows[f][k][S]``, those where that
    possibility set is exactly S."""
    full = (1 << (1 << players * states * states)) - 1

    def digit(p: int) -> int:  # the lanes whose index has bit p set
        return full // ((1 << (1 << p)) + 1) << (1 << p)

    seen = tuple(
        tuple(tuple(digit(((players - 1 - f) * states + states - 1 - k) * states + v) for v in range(states))
              for k in range(states))
        for f in range(players)
    )
    return full, seen, tuple(tuple(_minterms(vs, full) for vs in row) for row in seen)


def _any_of(vectors: list[int], events: tuple[int, ...]) -> int:
    return reduce(or_, map(vectors.__getitem__, events), 0)


class _Block:
    """The models of one plays block, or of one slice of it, in lane form:
    every event is a :class:`_Lanes`, bit t of a vector standing for the
    slice's model t.  ``plays`` is in the form of :attr:`_Model.plays`,
    ``contexts`` holds the packed context of every event,
    ``full`` is every lane, ``universe`` the universe event, and ``seen``
    and ``rows`` are the :func:`_lanes` patterns of every player, constant
    vectors for the ``fixed`` leading rows of the slice.  ``rational``
    memoises the slice's rationality vectors per (survivor table, player)."""

    __slots__ = ("plays", "contexts", "kept", "rational", "full", "universe", "fixed", "seen", "rows")

    def __init__(self, layout: tuple[tuple[int, ...], ...], plays: Masks):
        self.plays = plays
        # contexts[e]: the packed context of event e, which adds its lowest
        # state's profile to e's other states
        profiles = _profiles(layout, plays)
        contexts = self.contexts = [0]
        for e in range(1, 1 << len(profiles)):
            contexts.append(contexts[e & e - 1] | profiles[(e & -e).bit_length() - 1])
        self.kept: dict[tuple[SurvivorTable, int], tuple[tuple[int, ...], ...]] = {}

    def keeps(self, ask: tuple[SurvivorTable, int]) -> tuple[tuple[int, ...], ...]:
        """Per state k, the events (state masks) whose context keeps the
        strategy the player plays at k, for ``ask`` = (table, player)."""
        found = self.kept.get(ask)
        if found is None:
            table, player = ask
            held = [table.survivors(player, context) for context in self.contexts]
            found = self.kept[ask] = tuple(
                tuple(e for e, survivors in enumerate(held) if survivors >> s & 1) for s in self.plays[player]
            )
        return found

    def possible(self, lane: int) -> tuple[tuple[int, ...], ...]:
        """The possibility rows of the lane's model, as a sweep yields them."""
        states = len(self.plays[0])
        free = len(self.seen) - len(self.fixed)
        digits = (lane >> (free - 1 - f) * states * states for f in range(free))
        return self.fixed + tuple(_row(d & (1 << states * states) - 1, states) for d in digits)

    def rat(self, asks: tuple[tuple[SurvivorTable, int], ...]) -> _Lanes:
        """:meth:`_Model.rat` in every lane."""
        rational = self.rational
        for ask in asks:
            if ask not in rational:
                rational[ask] = _Lanes(map(_any_of, self.rows[ask[1]], self.keeps(ask)))
        return reduce(and_, map(rational.__getitem__, asks))

    def box(self, players: range | tuple[int, ...], event: _Lanes) -> _Lanes:
        """:meth:`_Model.box` in every lane."""
        outside = [self.full ^ v for v in event]
        result = list(self.universe)
        for i in players:
            for k, seen in enumerate(self.seen[i]):
                result[k] &= ~reduce(or_, map(and_, seen, outside))
        return _Lanes(result)

    def opt(self, asks: tuple[tuple[SurvivorTable, int], ...], event: _Lanes) -> _Lanes:
        """:meth:`_Model.opt` in every lane."""
        terms = _minterms(event, self.full)
        result = list(self.universe)
        for ask in asks:
            for k, keep in enumerate(self.keeps(ask)):
                result[k] &= _any_of(terms, keep)
        return _Lanes(result)

    def constants(self) -> Iterator[_Lanes]:
        """Every event that is the same in every lane, for ``forall X``."""
        states = range(len(self.universe))
        for candidate in range(1 << len(states)):
            yield _Lanes(self.full if candidate >> v & 1 else 0 for v in states)


def evaluable_condition(registry: ConditionRegistry, name: str) -> ConditionInfo:
    """The registered condition a formula names, or the evaluator's refusal
    of it: :class:`~epigame.conditions.UnknownNameError` when nothing
    defines it, :class:`ModalError` when it is not context-safe."""
    info = registry.get(name)
    if not info.analysis.context_safe:
        raise ModalError(f"condition {name!r} is not context-safe")
    return info


class _Compiler:
    """Turns formulas into programs of closures over one game.

    Compiling resolves each condition's survivor table and each player
    range, so every refusal is raised here, in the order a walk of the
    formula would meet it.
    """

    def __init__(self, game: Game, registry: ConditionRegistry):
        self.game = game
        self.registry = registry

    def _players(self, tag: int | None) -> range | tuple[int, ...]:
        if tag is None:
            return self.game.players
        if tag not in self.game.players:
            raise ModalError(f"player index {tag + 1} out of range")
        return (tag,)

    def _table(self, name: str) -> SurvivorTable:
        return survivor_table(self.game, evaluable_condition(self.registry, name).formula)

    def compile(self, f: FormulaNu) -> Callable:
        """The formula's program: ``run(model, env)`` is the event where it
        holds on a :class:`_Model` or a :class:`_Block`, in that form's
        events, when X denotes env.  The program keeps its memos on the
        model, so one model serves any sequence of programs, and it holds
        no reference to the game, which caches it (see :func:`_program`)."""
        if isinstance(f, Rat):
            players = self._players(f.player)
            table = self._table(f.condition)
            asks = tuple((table, i) for i in players)
            return lambda m, env: m.rat(asks)
        if isinstance(f, Neg):
            body = self.compile(f.body)
            return lambda m, env: m.universe ^ body(m, env)
        if isinstance(f, Conj):
            left, right = self.compile(f.left), self.compile(f.right)
            # safe to skip: every refusal is made here, and runs only fill memos
            return lambda m, env: (held := left(m, env)) and held & right(m, env)
        if isinstance(f, Box):
            body = self.compile(f.body)
            players = self._players(f.player)
            return lambda m, env: m.box(players, body(m, env))
        if isinstance(f, Opt):
            body = self.compile(f.body)
            table = self._table(f.condition)
            asks = tuple((table, i) for i in self._players(f.player))
            return lambda m, env: m.opt(asks, body(m, env))
        if isinstance(f, SetVar):
            return lambda m, env: env
        if isinstance(f, Nu):
            body = self.compile(f.body)

            def nu(m: _Model | _Block, env: int | _Lanes) -> int | _Lanes:
                # on a block, each lane's sequence is its model's, stationary once stable
                current = m.universe
                while True:
                    nxt = body(m, current) & current
                    if nxt == current:
                        return current
                    current = nxt

            return nu
        if isinstance(f, ForallX):
            body = self.compile(f.body)

            def forall(m: _Model | _Block, env: int | _Lanes) -> int | _Lanes:
                result = m.universe
                for candidate in m.constants():
                    result &= body(m, candidate)
                    if not result:
                        break
                return result

            return forall
        raise ModalError(f"cannot interpret {f!r}")


def _row(index: int, states: int) -> tuple[int, ...]:
    """The possibility row whose per-state masks are the digits of index."""
    return tuple(index >> (states - 1 - k) * states & (1 << states) - 1 for k in range(states))


def _slices(game: Game, states: int) -> Iterator[tuple[tuple[tuple[int, ...], ...], _Block]]:
    """(plays, block) for every slice of every plays block of the models
    with ``states`` states, in the order of
    :func:`~epigame.oracles.enumerate_model_masks`.  The slices of one plays
    block are one :class:`_Block`, updated in place."""
    row_bits = states * states
    free = min(game.n, max(1, BLOCK_BITS // row_bits))
    full, seen, rows = _lanes(free, states)
    layout = _game_layout(game)
    universe = _Lanes((full,) * states)
    # per slice: the fixed leading rows, then every player's patterns
    slices = []
    for leading in product(range(1 << row_bits), repeat=game.n - free):
        fixed = tuple(_row(r, states) for r in leading)
        slices.append((
            fixed,
            tuple(tuple(tuple(full if m >> v & 1 else 0 for v in range(states)) for m in row) for row in fixed)
            + seen,
            tuple(tuple([full if e == m else 0 for e in range(1 << states)] for m in row) for row in fixed)
            + rows,
        ))
    for plays in product(*(product(range(len(names)), repeat=states) for names in game.strategies)):
        block = _Block(layout, plays)
        block.full, block.universe = full, universe
        for block.fixed, block.seen, block.rows in slices:
            block.rational = {}
            yield plays, block


def _sweep_blocks(game: Game, run: Callable, max_states: int) -> ValidityReport:
    """Run a program over every model with up to ``max_states`` states, a
    block at a time, in the order of
    :func:`~epigame.oracles.enumerate_model_masks`."""
    checked = 0
    for states in range(1, max_states + 1):
        for plays, block in _slices(game, states):
            failed = block.full ^ reduce(and_, run(block, block.universe))
            if failed:
                lane = (failed & -failed).bit_length() - 1
                return ValidityReport(False, model_of_masks(game, plays, block.possible(lane)), checked + lane + 1)
            checked += block.full.bit_length()
    return ValidityReport(True, None, checked)


def _program(game: Game, formula: FormulaNu, registry: ConditionRegistry) -> Callable:
    """The game's program for the formula, kept in :attr:`Game.modal_cache`
    and keyed on the registry object itself.  A full cache is emptied
    first; its survivor tables and last model are rebuilt on demand."""
    cache = game.modal_cache
    key = (formula, registry)
    program = cache.get(key)
    if program is None:
        if len(cache) >= MAX_CACHED_PROGRAMS:
            cache.clear()
        program = cache[key] = _Compiler(game, registry).compile(formula)
    return program


def _interpret(
    model: BeliefModel,
    formula: FormulaNu,
    env: Event | None,
    registry: ConditionRegistry | None,
) -> Event:
    states = model.states
    if len(states) > MAX_SECOND_ORDER_STATES and any(isinstance(f, ForallX) for f in iter_subformulas(formula)):
        raise ModalError(f"second-order interpretation is limited to {MAX_SECOND_ORDER_STATES} states")
    if env is None:
        start = (1 << len(states)) - 1
    else:
        unknown = set(env).difference(states)
        if unknown:
            raise ModalError(f"unknown state {sorted(unknown)[0]!r} in the environment")
        start = sum(1 << k for k, state in enumerate(states) if state in env)
    run = _program(model.game, formula, registry or ConditionRegistry.standard())
    result = run(_load(model), start)
    return frozenset(s for k, s in enumerate(states) if result >> k & 1)


def interpret(
    model: BeliefModel,
    formula: FormulaNu,
    env: Event | None = None,
    registry: ConditionRegistry | None = None,
) -> Event:
    """The event where the formula holds; ``env`` interprets free X.
    Raises :class:`ModalError` when ``env`` names a state the model lacks,
    and for a ``forall X`` on more than :data:`MAX_SECOND_ORDER_STATES` states."""
    return _interpret(model, formula, env, registry)


def interpret_so(
    model: BeliefModel,
    formula: FormulaNu,
    env: Event | None = None,
    registry: ConditionRegistry | None = None,
) -> Event:
    """:func:`interpret` under a second name, kept apart so profiles count each name's calls."""
    return _interpret(model, formula, env, registry)


# ---------------------------------------------------------------------------
# Validity over enumerated / sampled models


#: The top byte of a coin's first 32-bit word, translated to the digit "1"
#: when its top bit is clear (``random()`` would be below 0.5), else "0".
_HEADS = bytes(ord("1") if b < 128 else ord("0") for b in range(256))


def _sample_models(game: Game, count: int, max_states: int, seed: int) -> Iterator[_Model]:
    """Seeded random models, ready to run: uniform state count in
    1..max_states (``randint``), then every player's strategy at every
    state, uniform (``choice``), then each possibility set drawn uniformly,
    one fair coin (``random() < 0.5``) per player, state and member, in
    that order.  Each state's profile is ORed up while its plays are drawn.

    It reads the Mersenne Twister stream exactly as those calls would, with
    fewer Python calls, so it draws the models of the reference loop,
    :func:`epigame.oracles.naive_sample_model_masks`.  ``randint(1, K)`` is
    ``1 + _randbelow(K)`` and ``choice(seq)`` is
    ``seq[_randbelow(len(seq))]``; ``_randbelow(n)`` redraws
    ``getrandbits(n.bit_length())`` while the result is out of range, and
    that loop is written out.  ``random()`` builds its double from two
    32-bit words, the first giving its top 27 bits, so it is below 0.5
    exactly when bit 31 of the first word is 0.  ``getrandbits(64 * m)``
    returns the same 2m words, the first as the least significant, so coin
    j is heads exactly when byte ``8j + 3`` of the little-endian bytes is
    below 128.
    """
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    top = max_states.bit_length()
    draws = [(bits, len(bits), len(bits).bit_length()) for bits in _game_layout(game)]
    players = game.n
    for _ in range(count):
        size = getrandbits(top)
        while size >= max_states:
            size = getrandbits(top)
        size += 1
        states = range(size)
        profiles = [0] * size
        plays = []
        for bits, n, width in draws:
            row = []
            for k in states:
                s = getrandbits(width)
                while s >= n:
                    s = getrandbits(width)
                row.append(s)
                profiles[k] |= bits[s]
            plays.append(tuple(row))
        coins = players * size * size
        words = getrandbits(64 * coins).to_bytes(8 * coins, "little")
        # bit j is coin j, heads being 1, and state k's set of player i is
        # the size coins from (i * size + k) * size
        heads = int(words[3::8].translate(_HEADS)[::-1], 2)
        full = (1 << size) - 1
        masks = [heads >> j & full for j in range(0, coins, size)]
        possible = tuple([tuple(masks[j : j + size]) for j in range(0, players * size, size)])
        yield _Model(tuple(plays), tuple(profiles), possible)


class ValidityReport(Value):
    valid: bool
    countermodel: BeliefModel | None
    models_checked: int

    def __init__(self, valid: bool, countermodel: BeliefModel | None, models_checked: int):
        setfield(self, "valid", valid)
        setfield(self, "countermodel", countermodel)
        setfield(self, "models_checked", models_checked)


def exhaustive_model_count(game: Game, max_states: int) -> int:
    """The belief models over the game with 1..max_states states: at k
    states, one strategy per player and state, and one possibility set,
    possibly empty, per player and state."""
    profiles = prod(map(len, game.strategies))
    return sum(profiles**k << game.n * k * k for k in range(1, max_states + 1))


def check_validity(
    game: Game,
    formula: FormulaNu,
    registry: ConditionRegistry | None = None,
    max_states: int = 2,
    samples: int | None = None,
    seed: int = 0,
) -> ValidityReport:
    """Is the formula true at every state of every model over the game?

    Exhaustive over all belief models with up to ``max_states`` states by
    default; with ``samples`` set, checks that many seeded random models
    instead.  A free X is read universally, as ``forall X . formula``.
    Returns the first countermodel found.  Raises :class:`ModalError` when
    the search would check no model at all, so a positive verdict is never
    earned on an empty corpus, and when a second-order formula or a sampled
    search comes with more than :data:`MAX_SECOND_ORDER_STATES` states;
    raises :class:`~epigame.beliefs.EnumerationLimitError` for an exhaustive
    search past :data:`~epigame.beliefs.MAX_ENUM_STATES` states or past
    :data:`MAX_EXHAUSTIVE_MODELS` models, before any work.  Both searches
    run the formula's one program: the exhaustive one on a plays block at
    a time, the sampled one on each drawn model.
    """
    if max_states < 1:
        raise ModalError(f"models need at least 1 state, got {max_states}")
    if samples is not None and samples < 1:
        raise ModalError(f"need at least 1 sampled model, got {samples}")
    if has_free_x(formula):
        formula = ForallX(formula)
    second_order = any(isinstance(f, ForallX) for f in iter_subformulas(formula))
    if max_states > MAX_SECOND_ORDER_STATES and (second_order or samples is not None):
        kind = "second-order" if second_order else "sampled"
        raise ModalError(f"{kind} validity checks are limited to {MAX_SECOND_ORDER_STATES} states")
    registry = registry or ConditionRegistry.standard()
    if samples is None:
        if max_states > MAX_ENUM_STATES:
            raise EnumerationLimitError(f"exhaustive enumeration is limited to {MAX_ENUM_STATES} states")
        count = exhaustive_model_count(game, max_states)
        if count > MAX_EXHAUSTIVE_MODELS:
            raise EnumerationLimitError(
                f"an exhaustive search would check {count:,} models,"
                f" more than the {MAX_EXHAUSTIVE_MODELS:,} allowed"
            )
    run = _program(game, formula, registry)
    if samples is None:
        return _sweep_blocks(game, run, max_states)
    for checked, model in enumerate(_sample_models(game, samples, max_states, seed), 1):
        if run(model, model.universe) != model.universe:
            return ValidityReport(False, model_of_masks(game, model.plays, model.possible), checked)
    return ValidityReport(True, None, samples)
