"""Strategic games, optimality conditions, elimination operators, belief
models, a modal fixpoint language, and a small proof checker.

The layers, bottom up:

- :mod:`epigame.value` — the immutable value classes every layer's
  results and formula nodes are built on.
- :mod:`epigame.games` — finite strategic games with exact rational payoffs
  and the lattice of restrictions (per-player strategy subsets); the
  bundled reference games.
- :mod:`epigame.conditions` — a first-order language for optimality
  conditions ("this strategy is a best response", "not dominated", ...),
  with syntactic analyses (closed / positive / context-safe) and a naive
  reference evaluator.
- :mod:`epigame.optimality` — the fast optimality kernel: each condition
  compiled once into a plan that decides which strategies of a player
  satisfy it in a context; it keeps nothing but that compile cache.
- :mod:`epigame.operators` — each condition induces an elimination operator
  on restrictions; iterate to a fixpoint, check monotonicity.
- :mod:`epigame.beliefs` — finite belief models over a game, held as
  masks: a strategy index and a possibility bitmask per player and state,
  with state names only in the text format and in events.
- :mod:`epigame.modal` — a modal language with rationality atoms, belief
  modalities, optimality operators and a greatest-fixpoint binder,
  interpreted by one program per formula and game, which runs on one
  model or on a block of models at once, and the per-game survivor table
  that memoises the kernel for them; sampled validity sweeps draw their
  models straight into the form the program reads.
- :mod:`epigame.proofs` — line-by-line checking of derivations in that
  language, with semantically discharged implication lemmas; the bundled
  proof scripts.
- :mod:`epigame.oracles` — independent brute-force reference implementations,
  among them the set-based belief and common-belief operators, game,
  condition and belief-model generators, and the table operators and
  outcome-inclusion check used to cross-check everything above; no runtime
  module imports it.
"""

from .beliefs import BeliefModel, format_model, parse_model
from .conditions import (
    ConditionRegistry,
    OptimalityModel,
    analyze,
    builtin,
    models,
    parse_lo,
    pretty_lo,
)
from .games import Game, Restriction, format_game, parse_game, restrictions
from .modal import (
    check_validity,
    common_belief_formula,
    interpret,
    parse_nu,
    pretty_nu,
)
from .operators import (
    ConditionOperator,
    ContractedOperator,
    check_monotone,
    condition_operator,
    format_trace,
    iterate,
)
from .optimality import optimal_strategies
from .proofs import check_proof, parse_proof, standard_lemmas

__version__ = "0.1.0"

__all__ = [
    "BeliefModel",
    "ConditionOperator",
    "ConditionRegistry",
    "ContractedOperator",
    "Game",
    "OptimalityModel",
    "Restriction",
    "analyze",
    "builtin",
    "check_monotone",
    "check_proof",
    "check_validity",
    "common_belief_formula",
    "condition_operator",
    "format_game",
    "format_model",
    "format_trace",
    "interpret",
    "iterate",
    "models",
    "optimal_strategies",
    "parse_game",
    "parse_lo",
    "parse_model",
    "parse_nu",
    "parse_proof",
    "pretty_lo",
    "pretty_nu",
    "restrictions",
    "standard_lemmas",
]
