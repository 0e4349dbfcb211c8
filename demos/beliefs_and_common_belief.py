"""Belief models and the common-belief chain.

Builds two finite belief models over the same game.  In the first, the
players' possibility sets partition the states, so common belief of the
event coincides with everyone believing it.  In the second, the
possibility sets chase each other in a two-cycle: everyone believes each
event somewhere, yet common belief of either one is empty.
"""
from epigame.beliefs import parse_model
from epigame.oracles import believes, common_belief, everyone_believes, fig1_right

game = fig1_right()

PARTITIONED = """\
states: w1 w2
plays 1: w1=U w2=D
plays 2: w1=L w2=R
possible 1: w1={w1} w2={w2}
possible 2: w1={w1} w2={w2}
"""

CYCLIC = """\
states: a b
plays 1: a=U b=U
plays 2: a=L b=L
possible 1: a={b} b={a}
possible 2: a={b} b={a}
"""


def show(name, text, event_states):
    model = parse_model(text, game)
    event = frozenset(event_states)
    print(f"{name}: states {model.states}, event {sorted(event)}")
    for player in (0, 1):
        held = believes(model, player, event)
        print(f"  player {player + 1} believes it at: {sorted(held) or '-'}")
    print(f"  everyone believes it at:  {sorted(everyone_believes(model, event)) or '-'}")
    result = common_belief(model, event)
    print(f"  chain of iterates:        {[sorted(e) for e in result.chain]}")
    print(f"  common belief at:         {sorted(result.event) or '-'}")
    print()


show("partitioned model", PARTITIONED, {"w1"})
show("cyclic model", CYCLIC, {"a"})
show("cyclic model, other event", CYCLIC, {"b"})
