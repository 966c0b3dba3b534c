"""Tests for content-model compilation, the derivative matcher and the
UPA check, with the Glushkov automaton of :mod:`tests.glushkov` as the
oracle of both."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.content import (
    ChoiceParticle,
    ContentModel,
    DerivativeMatcher,
    EmptyParticle,
    NameParticle,
    RepeatParticle,
    SequenceParticle,
    compile_group,
    competing_names,
)
from repro.schema import (
    CombinationFactor,
    ElementDeclaration,
    GroupDefinition,
    RepetitionFactor,
    TypeName,
    UNBOUNDED,
)
from repro.xmlio import xsd
from tests.glushkov import GlushkovAutomaton
from tests.test_query_plan import _budget


def _eld(name: str, minimum: int = 1, maximum=1) -> ElementDeclaration:
    return ElementDeclaration(name, TypeName(xsd("string")),
                              RepetitionFactor(minimum, maximum))


def _group(members, combination=CombinationFactor.SEQUENCE,
           minimum=1, maximum=1) -> GroupDefinition:
    return GroupDefinition(tuple(members), combination,
                           RepetitionFactor(minimum, maximum))


class TestCompilation:
    def test_empty_group_compiles_to_epsilon(self):
        assert isinstance(compile_group(_group([])), EmptyParticle)

    def test_sequence_shape(self):
        particle = compile_group(_group([_eld("A"), _eld("B")]))
        assert isinstance(particle, SequenceParticle)
        assert [repr(c) for c in particle.children] == ["A", "B"]

    def test_choice_shape(self):
        particle = compile_group(
            _group([_eld("A"), _eld("B")], CombinationFactor.CHOICE))
        assert isinstance(particle, ChoiceParticle)

    def test_occurrence_wrapping(self):
        particle = compile_group(_group([_eld("A", 0, 5)]))
        (child,) = particle.children if isinstance(
            particle, SequenceParticle) else (particle,)
        assert isinstance(child, RepeatParticle)
        assert child.minimum == 0 and child.maximum == 5

    def test_zero_max_becomes_empty(self):
        particle = compile_group(_group([_eld("A", 0, 0)]))
        model = ContentModel(_group([_eld("A", 0, 0)]))
        assert model.matches([])
        assert not model.matches(["A"])


class TestSequenceMatching:
    def test_example_2_sequence(self):
        # Example 2: sequence of B then C.
        model = ContentModel(_group([_eld("B"), _eld("C")]))
        assert model.matches(["B", "C"])
        assert not model.matches(["C", "B"])
        assert not model.matches(["B"])
        assert not model.matches(["B", "C", "C"])
        assert not model.matches([])

    def test_optional_members(self):
        model = ContentModel(_group([_eld("A", 0, 1), _eld("B")]))
        assert model.matches(["B"])
        assert model.matches(["A", "B"])
        assert not model.matches(["A"])

    def test_bounded_repetition(self):
        model = ContentModel(_group([_eld("A", 2, 4)]))
        assert not model.matches(["A"])
        assert model.matches(["A"] * 2)
        assert model.matches(["A"] * 4)
        assert not model.matches(["A"] * 5)

    def test_huge_max_occurs_is_cheap(self):
        # The derivative matcher must not expand maxOccurs copies.
        model = ContentModel(_group([_eld("A", 0, 10**9)]))
        assert model.matches(["A"] * 1000)
        assert not model.matches(["A"] * 1000 + ["B"])


class TestChoiceMatching:
    def test_example_3_choice(self):
        # Example 3: (zero | one) repeated 0..unbounded.
        model = ContentModel(_group(
            [_eld("zero"), _eld("one")],
            CombinationFactor.CHOICE, 0, UNBOUNDED))
        assert model.matches([])
        assert model.matches(["zero"])
        assert model.matches(["one", "zero", "one"])
        assert not model.matches(["two"])

    def test_exclusive_choice(self):
        model = ContentModel(_group(
            [_eld("A"), _eld("B")], CombinationFactor.CHOICE))
        assert model.matches(["A"])
        assert model.matches(["B"])
        assert not model.matches(["A", "B"])
        assert not model.matches([])


class TestNestedGroups:
    def test_sequence_of_choices(self):
        inner = _group([_eld("X"), _eld("Y")], CombinationFactor.CHOICE)
        model = ContentModel(_group([_eld("A"), inner, _eld("B")]))
        assert model.matches(["A", "X", "B"])
        assert model.matches(["A", "Y", "B"])
        assert not model.matches(["A", "X", "Y", "B"])

    def test_repeated_nested_group(self):
        inner = _group([_eld("K"), _eld("V")], minimum=0, maximum=UNBOUNDED)
        model = ContentModel(_group([inner]))
        assert model.matches([])
        assert model.matches(["K", "V", "K", "V"])
        assert not model.matches(["K", "V", "K"])


class TestExplain:
    def test_unknown_name(self):
        model = ContentModel(_group([_eld("A")]))
        assert "does not occur" in model.explain(["Z"])

    def test_wrong_position(self):
        model = ContentModel(_group([_eld("A"), _eld("B")]))
        message = model.explain(["B"])
        assert "not allowed here" in message
        assert "'A'" in message

    def test_premature_end(self):
        model = ContentModel(_group([_eld("A"), _eld("B")]))
        assert "prematurely" in model.explain(["A"])

    def test_match_message(self):
        model = ContentModel(_group([_eld("A")]))
        assert model.explain(["A"]) == "the sequence matches"


class TestDeclarationAttribution:
    def test_declaration_for(self):
        model = ContentModel(_group([_eld("A", 0, 2), _eld("B")]))
        assert model.declaration_for("A").repetition.maximum == 2
        assert model.knows("A")
        assert not model.knows("Z")


def _oracle_names(particle):
    """The names Glushkov on the expansion finds competing."""
    conflicts = GlushkovAutomaton(particle).competing_positions()
    return sorted({name for name, _, _ in conflicts})


def _a(name="a"):
    return NameParticle(name)


def _ab():
    """``a? b``, a fresh pair of leaves."""
    return SequenceParticle((RepeatParticle(_a(), 0, 1), _a("b")))


class TestDeterminism:
    def test_flat_groups_are_deterministic(self):
        particle = compile_group(_group([_eld("A"), _eld("B", 0, 9)]))
        assert competing_names(particle) == _oracle_names(particle) == []

    def test_competing_names_detected(self):
        # (A, B) | (A, C): the two A positions compete — a UPA violation.
        left = _group([_eld("A"), _eld("B")])
        right = _group([_eld("A"), _eld("C")])
        particle = compile_group(
            _group([left, right], CombinationFactor.CHOICE))
        assert competing_names(particle) == _oracle_names(particle) == ["A"]

    @pytest.mark.parametrize("particle, names", [
        # a{1,2} a: after the first a, a second copy or the last a.
        (SequenceParticle((RepeatParticle(_a(), 1, 2), _a())), ["a"]),
        # (a? b){2,∞} a: after b, another round's a or the last a.
        (SequenceParticle((RepeatParticle(_ab(), 2, None), _a())), ["a"]),
        # a{2,2} a: the first copy must repeat, the last one must end.
        (SequenceParticle((RepeatParticle(_a(), 2, 2), _a())), []),
        # (a? b){2} a: likewise; the copies' a never meets the last a.
        (SequenceParticle((RepeatParticle(_ab(), 2, 2), _a())), []),
    ], ids=["a{1,2} a", "(a? b){2,inf} a", "a{2,2} a", "(a? b){2} a"])
    def test_named_cases_agree_with_the_oracle(self, particle, names):
        assert competing_names(particle) == names
        assert _oracle_names(particle) == names

    @pytest.mark.parametrize("bound", [200_000, 10**6])
    def test_bounds_are_never_expanded(self, bound):
        # The verdict at a bound no expansion could reach: exactly n
        # copies keep each a apart; up to n copies do not.
        exact = SequenceParticle((RepeatParticle(_ab(), bound, bound), _a()))
        assert competing_names(exact) == []
        upto = SequenceParticle((RepeatParticle(_ab(), 2, bound), _a()))
        assert competing_names(upto) == ["a"]


# ----------------------------------------------------------------------
# Cross-checking the derivative matcher and the UPA check against the
# Glushkov oracle, and the matchers against brute force.

_random_group = st.deferred(lambda: st.one_of(_leaf_group, _nested_group()))

_names = st.sampled_from(["a", "b", "c"])

_leaf_member = st.builds(
    _eld,
    _names,
    st.integers(min_value=0, max_value=2),
    st.one_of(st.integers(min_value=2, max_value=3),
              st.just(UNBOUNDED)))


@st.composite
def _distinct_members(draw, member_strategy, max_size=3):
    members = draw(st.lists(member_strategy, min_size=1, max_size=max_size))
    seen: set[str] = set()
    result = []
    for member in members:
        if isinstance(member, ElementDeclaration):
            if member.name in seen:
                continue
            seen.add(member.name)
        result.append(member)
    return result


_leaf_group = st.builds(
    _group,
    _distinct_members(_leaf_member),
    st.sampled_from([CombinationFactor.SEQUENCE, CombinationFactor.CHOICE]),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=2, max_value=3))

@st.composite
def _nested_group(draw):
    # minOccurs up to 3 on an outer group: a copy that must repeat.
    minimum = draw(st.integers(min_value=0, max_value=3))
    return _group(
        draw(_distinct_members(st.one_of(_leaf_member, _leaf_group))),
        draw(st.sampled_from([CombinationFactor.SEQUENCE,
                              CombinationFactor.CHOICE])),
        minimum,
        draw(st.one_of(st.integers(min_value=max(minimum, 1), max_value=3),
                       st.just(UNBOUNDED))))


class TestUpaCrossCheck:
    @settings(max_examples=_budget(150), deadline=None)
    @given(_random_group)
    def test_competing_names_agree_with_glushkov(self, group):
        particle = compile_group(group)
        assert competing_names(particle) == _oracle_names(particle)


class TestMatcherCrossCheck:
    @settings(max_examples=_budget(150), deadline=None)
    @given(_random_group, st.lists(_names, max_size=6))
    def test_derivative_agrees_with_glushkov(self, group, word):
        particle = compile_group(group)
        derivative = DerivativeMatcher(particle).matches(word)
        glushkov = GlushkovAutomaton(particle).matches(word)
        assert derivative == glushkov

    def test_exhaustive_short_words(self):
        rng = random.Random(7)
        groups = [
            _group([_eld("a", 0, 2), _eld("b")]),
            _group([_eld("a"), _eld("b", 0, UNBOUNDED)],
                   CombinationFactor.CHOICE, 1, 2),
            _group([_group([_eld("a"), _eld("b")],
                           CombinationFactor.CHOICE, 0, 2), _eld("c")]),
        ]
        for group in groups:
            particle = compile_group(group)
            derivative = DerivativeMatcher(particle)
            glushkov = GlushkovAutomaton(particle)
            for length in range(5):
                for word in itertools.product("abc", repeat=length):
                    assert (derivative.matches(word)
                            == glushkov.matches(word)), (group, word)

    def test_counter_larger_than_the_transition_table(self):
        """One matcher, reused: a counted particle has a state per
        count, more of them than the memo keeps — it starts over
        instead of growing, and answers as the unmemoised derivative
        and (on the two words at the bound; the automaton is
        quadratic in a run of one name) the Glushkov automaton do."""
        from repro.content.derivatives import _MAX_TRANSITIONS
        bound = _MAX_TRANSITIONS + 10
        particle = compile_group(_group(
            [_eld("a", 2, bound),
             _group([_eld("b"), _eld("c")], CombinationFactor.CHOICE,
                    0, UNBOUNDED)]))
        matcher = DerivativeMatcher(particle)
        for count in (0, 1, 2, 7, bound - 1, bound, bound + 1, 3):
            for tail in ((), ("b",), ("c", "b", "b"), ("b", "a")):
                word = ("a",) * count + tail
                assert matcher.matches(word) \
                    == matcher.residual(word).nullable(), word
                assert len(matcher._transitions) <= _MAX_TRANSITIONS
        glushkov = GlushkovAutomaton(particle)
        for word in (("a",) * bound + ("c",), ("a",) * (bound + 1)):
            assert matcher.matches(word) == glushkov.matches(word), word
        # (b|c)* is one state however long the run.
        matcher.matches(("a", "a", "b", "c", "b"))
        before = len(matcher._transitions)
        assert matcher.matches(("a", "a") + ("b", "c") * 400)
        assert len(matcher._transitions) == before
