"""The value classes: equality by class and fields, hashes that agree with
it, frozen fields, and the reprs a frozen dataclass printed."""

import copy
import pickle

import pytest

import epigame.cli  # noqa: F401  (every layer module, so that every Value subclass exists)
import epigame.oracles  # noqa: F401
from epigame.conditions import Conj, CtxAtom, GeqAtom, Neg, analyze, parse_lo
from epigame.games import bundled_game
from epigame.modal import Nu, Rat, SetVar, X, check_validity, parse_nu
from epigame.operators import condition_operator, iterate
from epigame.proofs import Justification, parse_proof
from epigame.value import Value, setfield


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def test_every_value_class_with_fields_writes_its_own_init():
    # restrictions, models and formula nodes are built by the thousand, and
    # an __init__ that loops over a field tuple is slower than one that
    # stores each field by name
    classes = list(subclasses(Value))
    assert len(classes) >= 30
    assert [cls.__qualname__ for cls in classes if cls._fields and "__init__" not in cls.__dict__] == []
    for cls in classes:
        assert cls.__eq__ is not object.__eq__ and cls.__hash__ is not None, cls


def test_a_class_whose_fields_are_not_found_is_refused():
    # a class body that keeps no __annotations__ dict (Python 3.14 without
    # the __future__ import) would give a class whose instances all compare
    # equal
    with pytest.raises(TypeError, match="no field annotations"):

        class Unannotated(Value):
            def __init__(self, body):
                setfield(self, "body", body)


def test_equality_compares_the_class_first():
    x = CtxAtom("y")
    assert Neg(x) != Nu(x)
    assert Neg(x) == Neg(CtxAtom("y"))
    assert Conj(Rat("gbr"), X) != Conj(X, Rat("gbr"))
    assert Conj(Rat("gbr"), X) == Conj(Rat("gbr", None), SetVar())
    assert Rat("gbr") != Rat("gbr", 0)
    assert Neg(x) != ("y",) and CtxAtom("y") != "y"
    assert parse_lo("forall y . C(y)") != parse_lo("exists y . C(y)")


def test_equal_values_hash_equal():
    texts = [
        "forall y in C . exists z in C . o >= y @ z",
        "rat(gbr) and CB rat(gbr) -> nu X . O(lsd) X",
        "forall X . [1] X -> O(gsd, 2) X",
    ]
    for text in texts:
        parse = parse_lo if "@" in text else parse_nu
        first, second = parse(text), parse(text)
        assert first is not second and first == second and hash(first) == hash(second)
        assert len({first, second}) == 1
    game = bundled_game("fig2")
    one, two = game.restriction({"U"}, {"L", "R"}), game.restriction(["U"], ("R", "L"))
    assert one == two and hash(one) == hash(two)
    assert analyze(parse_lo(texts[0])) == analyze(parse_lo(texts[0]))
    assert len({Neg(SetVar()), Nu(SetVar()), SetVar(), SetVar()}) == 3


@pytest.mark.parametrize(
    "value, field",
    [
        (GeqAtom("y", "o", "z"), "left"),
        (Rat("gbr"), "player"),
        (bundled_game("fig1_right").full_restriction(), "masks"),
        (Justification("taut"), "refs"),
        (analyze(parse_lo("C(o)")), "closed"),
    ],
)
def test_fields_cannot_be_assigned_or_deleted(value, field):
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == before


def test_reprs_keep_the_dataclass_format():
    # literals printed by the frozen dataclasses these classes replace
    assert repr(parse_lo("forall y in C . exists z in C . o > y @ z")) == (
        "Neg(body=Exists(var='y', body=Conj(left=CtxAtom(term='y'), right=Neg(body=Exists(var='z', "
        "body=Conj(left=CtxAtom(term='z'), right=Neg(body=GeqAtom(left='y', right='o', ctx='z'))))))))"
    )
    assert repr(parse_nu("rat(gbr, 1) and [2] O(lsd) nu X . box (X and CB rat(gsd))")) == (
        "Conj(left=Rat(condition='gbr', player=0), right=Box(player=1, body=Opt(condition='lsd', "
        "player=None, body=Nu(body=Box(player=None, body=Conj(left=SetVar(), right=Nu(body=Box("
        "player=None, body=Conj(left=SetVar(), right=Rat(condition='gsd', player=None))))))))))"
    )
    game = bundled_game("fig1_right")
    assert repr(game.restriction({"U"}, {"L", "R"})) == "Restriction((1, 3), '1: U / 2: L R')"
    assert repr(check_validity(game, parse_nu("rat(gbr) -> box rat(gbr)"))) == (
        "ValidityReport(valid=False, countermodel=BeliefModel(game=Game(strategies=(('U', 'D'), "
        "('L', 'R')), payoffs={('U', 'L'): (Fraction(1, 1), Fraction(1, 1)), ('U', 'R'): "
        "(Fraction(1, 1), Fraction(0, 1)), ('D', 'L'): (Fraction(0, 1), Fraction(0, 1)), "
        "('D', 'R'): (Fraction(0, 1), Fraction(1, 1))}), states=('w1', 'w2'), plays=((0, 0), "
        "(0, 0)), possible=((0, 1), (0, 1))), models_checked=34)"
    )
    formula = parse_nu("rat(gbr) and CB rat(gbr) -> nu X . O(lsd) X")
    assert repr(check_validity(game, formula)) == (
        "ValidityReport(valid=True, countermodel=None, models_checked=4112)"
    )


def test_copies_and_pickles_are_equal_values():
    game = bundled_game("fig2")
    trace = iterate(condition_operator(game, "gbr"))
    script = parse_proof("1. rat(gbr) -> rat(gbr) ; taut\n")
    for value in (trace, script, parse_nu("nu X . box (X and rat(lsd))")):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)


def test_copies_and_pickles_leave_the_kept_hash_and_caches_behind():
    game = bundled_game("fig2")
    formula = parse_nu("nu X . box (X and rat(lsd))")
    hash(formula), hash(game), game.preferences(0)
    for value in (formula, game):
        for twin in (copy.copy(value), pickle.loads(pickle.dumps(value))):
            assert list(vars(twin)) == list(value._fields)
