"""Tests for xsd:all groups (the footnote-2 'all option definition')."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra import InstanceBuilder, check_conformance
from repro.content import (
    AllParticle,
    ContentModel,
    DerivativeMatcher,
    compile_group,
)
from repro.errors import SchemaError, ValidationError
from repro.mapping import content_equal, document_to_tree, tree_to_document
from repro.schema import (
    AllGroup,
    ElementDeclaration,
    RepetitionFactor,
    TypeName,
    parse_schema,
    write_schema,
)
from repro.xmlio import parse_document, serialize_document, xsd
from repro.workloads.fixtures import wrap_in_schema
from tests.glushkov import GlushkovAutomaton

ALL_SCHEMA = wrap_in_schema("""
  <xsd:element name="Address"><xsd:complexType>
    <xsd:all>
      <xsd:element name="street" type="xsd:string"/>
      <xsd:element name="city" type="xsd:string"/>
      <xsd:element name="zip" type="xsd:string" minOccurs="0"/>
    </xsd:all>
  </xsd:complexType></xsd:element>""")


def _eld(name, minimum=1, maximum=1):
    return ElementDeclaration(name, TypeName(xsd("string")),
                              RepetitionFactor(minimum, maximum))


class TestAstConstraints:
    def test_basic_all_group(self):
        group = AllGroup((_eld("a"), _eld("b", 0, 1)))
        assert not group.empty_content
        assert group.is_flat
        assert [e.name for e in group.element_declarations()] == \
            ["a", "b"]

    def test_repeatable_member_rejected(self):
        with pytest.raises(SchemaError):
            AllGroup((_eld("a", 1, 2),))

    def test_repeatable_group_rejected(self):
        with pytest.raises(SchemaError):
            AllGroup((_eld("a"),), RepetitionFactor(1, 2))

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            AllGroup((_eld("a"), _eld("a")))

    def test_optional_all_group_allowed(self):
        group = AllGroup((_eld("a"),), RepetitionFactor(0, 1))
        assert group.repetition.minimum == 0


class TestMatching:
    def _model(self, *members, minimum=1):
        return ContentModel(AllGroup(tuple(members),
                                     RepetitionFactor(minimum, 1)))

    def test_any_permutation_accepted(self):
        model = self._model(_eld("a"), _eld("b"), _eld("c"))
        for permutation in itertools.permutations("abc"):
            assert model.matches(permutation), permutation

    def test_missing_required_rejected(self):
        model = self._model(_eld("a"), _eld("b"))
        assert not model.matches(["a"])
        assert not model.matches([])

    def test_duplicate_occurrence_rejected(self):
        model = self._model(_eld("a"), _eld("b"))
        assert not model.matches(["a", "a", "b"])

    def test_optional_member(self):
        model = self._model(_eld("a"), _eld("b", 0, 1))
        assert model.matches(["a"])
        assert model.matches(["b", "a"])
        assert not model.matches(["b"])

    def test_optional_whole_group(self):
        model = self._model(_eld("a"), minimum=0)
        assert model.matches([])
        assert model.matches(["a"])

    def test_unknown_name_rejected(self):
        model = self._model(_eld("a"))
        assert not model.matches(["z"])

    def test_particle_shape(self):
        particle = compile_group(AllGroup((_eld("a"), _eld("b", 0, 1))))
        assert isinstance(particle, AllParticle)
        assert particle.items == (("a", True), ("b", False))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from("abc"), max_size=5))
    def test_derivative_agrees_with_glushkov(self, word):
        group = AllGroup((_eld("a"), _eld("b", 0, 1), _eld("c")))
        particle = compile_group(group)
        derivative = DerivativeMatcher(particle).matches(word)
        glushkov = GlushkovAutomaton(particle).matches(word)
        assert derivative == glushkov


class TestParserAndWriter:
    def test_parse_all_group(self):
        schema = parse_schema(ALL_SCHEMA)
        group = schema.root_element.type.group
        assert isinstance(group, AllGroup)
        assert [m.name for m in group.members] == \
            ["street", "city", "zip"]
        assert group.members[2].repetition.minimum == 0

    def test_write_parse_roundtrip(self):
        schema = parse_schema(ALL_SCHEMA)
        again = parse_schema(write_schema(schema))
        group = again.root_element.type.group
        assert isinstance(group, AllGroup)
        assert [m.name for m in group.members] == \
            ["street", "city", "zip"]

    def test_non_element_member_rejected(self):
        with pytest.raises(SchemaError):
            parse_schema(wrap_in_schema("""
              <xsd:element name="R"><xsd:complexType>
                <xsd:all><xsd:sequence/></xsd:all>
              </xsd:complexType></xsd:element>"""))


class TestValidationWithAll:
    @pytest.mark.parametrize("body", [
        "<street>s</street><city>c</city>",
        "<city>c</city><street>s</street>",
        "<zip>z</zip><street>s</street><city>c</city>",
    ])
    def test_valid_orders(self, body):
        schema = parse_schema(ALL_SCHEMA)
        tree = document_to_tree(
            parse_document(f"<Address>{body}</Address>"), schema)
        assert check_conformance(tree, schema) == []

    @pytest.mark.parametrize("body", [
        "<street>s</street>",                       # city missing
        "<street>s</street><city>c</city><city>d</city>",  # repeated
        "<street>s</street><city>c</city><country>x</country>",
    ])
    def test_invalid_contents(self, body):
        schema = parse_schema(ALL_SCHEMA)
        with pytest.raises(ValidationError):
            document_to_tree(
                parse_document(f"<Address>{body}</Address>"), schema)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**9))
    def test_builder_and_roundtrip(self, seed):
        schema = parse_schema(ALL_SCHEMA)
        tree = InstanceBuilder(schema, seed=seed).build()
        assert check_conformance(tree, schema) == []
        document = tree_to_document(tree)
        tree2 = document_to_tree(
            parse_document(serialize_document(document)), schema)
        assert content_equal(document, tree_to_document(tree2))


class TestLintWithAll:
    def test_all_group_lints_clean(self):
        from repro.schema import lint_schema
        assert lint_schema(parse_schema(ALL_SCHEMA)) == []
