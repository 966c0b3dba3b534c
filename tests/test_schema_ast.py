"""Tests for the abstract syntax of Sections 2-3 and its formal types."""

import pytest

from repro.errors import SchemaError, TypeUsageError
from repro.xmlio import QName, xsd
from repro.schema import (
    AttributeDeclarations,
    CombinationFactor,
    ComplexContentType,
    DocumentSchema,
    ElementDeclaration,
    GroupDefinition,
    ONCE,
    RepetitionFactor,
    SimpleContentType,
    TypeName,
    UNBOUNDED,
)
from repro.xsdtypes import builtin
from tests.formal_types import (
    BOOLEAN,
    Enumeration,
    FM,
    Interleave,
    NAME,
    NAT_NUMBER,
    Pair,
    Seq,
    Tuple,
    Union,
)


def _string_ref() -> TypeName:
    return TypeName(xsd("string"))


class TestRepetitionFactor:
    def test_default_is_once(self):
        assert ONCE.minimum == 1 and ONCE.maximum == 1

    def test_permits(self):
        rf = RepetitionFactor(2, 4)
        assert not rf.permits(1)
        assert rf.permits(2)
        assert rf.permits(4)
        assert not rf.permits(5)

    def test_unbounded(self):
        rf = RepetitionFactor(0, UNBOUNDED)
        assert rf.unbounded
        assert rf.permits(0)
        assert rf.permits(10**9)

    def test_min_above_max_rejected(self):
        with pytest.raises(SchemaError):
            RepetitionFactor(3, 2)

    def test_negative_min_rejected(self):
        with pytest.raises(SchemaError):
            RepetitionFactor(-1, 1)

    def test_bad_max_rejected(self):
        with pytest.raises(SchemaError):
            RepetitionFactor(0, "lots")

    def test_as_pair(self):
        assert RepetitionFactor(0, UNBOUNDED).as_pair() == (0, "unbounded")


class TestElementDeclaration:
    def test_formal_tuple_shape(self):
        eld = ElementDeclaration("Book", _string_ref(),
                                 RepetitionFactor(0, 5), nillable=True)
        assert eld.as_tuple() == (
            "Book", _string_ref(), RepetitionFactor(0, 5), True)

    def test_defaults_match_paper(self):
        # Example 1: default repetition (1, 1), nillable false.
        eld = ElementDeclaration("InStock", _string_ref())
        assert eld.repetition == ONCE
        assert eld.nillable is False

    def test_invalid_name_rejected(self):
        with pytest.raises(SchemaError):
            ElementDeclaration("not a name", _string_ref())

    def test_colon_in_name_rejected(self):
        with pytest.raises(SchemaError):
            ElementDeclaration("a:b", _string_ref())


class TestGroupDefinition:
    def test_empty_content(self):
        group = GroupDefinition()
        assert group.empty_content
        assert group.is_flat

    def test_duplicate_element_names_rejected(self):
        a = ElementDeclaration("X", _string_ref())
        b = ElementDeclaration("X", _string_ref())
        with pytest.raises(SchemaError):
            GroupDefinition((a, b))

    def test_nested_groups_allowed(self):
        inner = GroupDefinition(
            (ElementDeclaration("A", _string_ref()),),
            CombinationFactor.CHOICE)
        outer = GroupDefinition(
            (ElementDeclaration("B", _string_ref()), inner))
        assert not outer.is_flat
        assert [e.name for e in outer.element_declarations()] == ["B", "A"]

    def test_same_name_in_nested_group_allowed(self):
        # The pairwise-difference rule applies per group, not globally.
        inner = GroupDefinition((ElementDeclaration("A", _string_ref()),))
        outer = GroupDefinition(
            (ElementDeclaration("A", _string_ref()), inner))
        assert len(list(outer.element_declarations())) == 2


class TestAttributeDeclarations:
    def test_finite_mapping(self):
        atds = AttributeDeclarations(
            (("InStock", TypeName(xsd("boolean"))),
             ("Reviewer", _string_ref())))
        assert atds.names() == ("InStock", "Reviewer")
        assert atds.type_of("InStock") == TypeName(xsd("boolean"))
        assert len(atds) == 2

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            AttributeDeclarations(
                (("a", _string_ref()), ("a", _string_ref())))

    def test_missing_name_raises(self):
        with pytest.raises(KeyError):
            AttributeDeclarations().type_of("nope")


class TestDocumentSchema:
    def _bookstore(self) -> DocumentSchema:
        book_type = ComplexContentType(group=GroupDefinition(
            (ElementDeclaration("Title", _string_ref()),)))
        root_type = ComplexContentType(group=GroupDefinition(
            (ElementDeclaration(
                "Book", TypeName(QName("", "BookPublication")),
                RepetitionFactor(1, UNBOUNDED)),)))
        return DocumentSchema(
            root_element=ElementDeclaration("BookStore", root_type),
            complex_types={QName("", "BookPublication"): book_type})

    def test_resolves_complex_type_name(self):
        schema = self._bookstore()
        resolved = schema.resolve(TypeName(QName("", "BookPublication")))
        assert isinstance(resolved, ComplexContentType)

    def test_resolves_simple_type_name(self):
        schema = self._bookstore()
        assert schema.resolve(_string_ref()) is builtin("string")

    def test_is_simple_ref(self):
        schema = self._bookstore()
        assert schema.is_simple_ref(_string_ref())
        assert not schema.is_simple_ref(
            TypeName(QName("", "BookPublication")))

    def test_unknown_type_usage_rejected(self):
        bad_root = ElementDeclaration(
            "R", TypeName(QName("", "Missing")))
        with pytest.raises(TypeUsageError):
            DocumentSchema(root_element=bad_root)

    def test_unknown_type_in_nested_declaration_rejected(self):
        nested = ComplexContentType(group=GroupDefinition(
            (ElementDeclaration("X", TypeName(QName("", "Ghost"))),)))
        with pytest.raises(TypeUsageError):
            DocumentSchema(
                root_element=ElementDeclaration("R", nested))

    def test_unknown_attribute_type_rejected(self):
        bad = ComplexContentType(attributes=AttributeDeclarations(
            (("a", TypeName(QName("", "Ghost"))),)))
        with pytest.raises(TypeUsageError):
            DocumentSchema(root_element=ElementDeclaration("R", bad))

    def test_complex_attribute_type_rejected(self):
        # §3: an attribute declaration maps a name to a simple type.
        bad = ComplexContentType(attributes=AttributeDeclarations(
            (("a", TypeName(QName("", "Rich"))),)))
        with pytest.raises(TypeUsageError, match="attribute 'a'"):
            DocumentSchema(
                root_element=ElementDeclaration("R", bad),
                complex_types={QName("", "Rich"): ComplexContentType()})

    def test_complex_simple_content_base_rejected(self):
        bad = SimpleContentType(base=TypeName(QName("", "Rich")))
        with pytest.raises(TypeUsageError, match="simple content base"):
            DocumentSchema(
                root_element=ElementDeclaration("R", bad),
                complex_types={QName("", "Rich"): ComplexContentType()})


class TestFormalConstructors:
    def test_nat_number(self):
        assert NAT_NUMBER.contains(0)
        assert NAT_NUMBER.contains(5)
        assert not NAT_NUMBER.contains(-1)
        assert not NAT_NUMBER.contains(True)
        assert not NAT_NUMBER.contains("3")

    def test_boolean(self):
        assert BOOLEAN.contains(True)
        assert not BOOLEAN.contains(1)

    def test_seq(self):
        ty = Seq(NAT_NUMBER)
        assert ty.contains(())
        assert ty.contains((1, 2))
        assert not ty.contains((1, -2))

    def test_fm_requires_distinct_keys(self):
        ty = FM(NAME, NAT_NUMBER)
        assert ty.contains((("a", 1), ("b", 2)))
        assert not ty.contains((("a", 1), ("a", 2)))
        assert ty.contains({"a": 1})

    def test_union(self):
        ty = Union(NAT_NUMBER, BOOLEAN)
        assert ty.contains(3)
        assert ty.contains(False)
        assert not ty.contains("x")

    def test_enumeration(self):
        ty = Enumeration("sequence", "choice")
        assert ty.contains("sequence")
        assert not ty.contains("union")

    def test_pair(self):
        ty = Pair(NAT_NUMBER, BOOLEAN)
        assert ty.contains((1, True))
        assert not ty.contains((1,))
        assert not ty.contains((True, 1))

    def test_interleave_accepts_both_orders(self):
        ty = Interleave(NAT_NUMBER, BOOLEAN)
        assert ty.contains((1, True))
        assert ty.contains((True, 1))
        assert not ty.contains((1, 2))

    def test_tuple(self):
        ty = Tuple(NAME, NAT_NUMBER, BOOLEAN)
        assert ty.contains(("x", 1, False))
        assert not ty.contains(("x", 1))

    def test_element_declaration_inhabits_its_formal_type(self):
        # ElementDeclaration = Tuple(ElemName, Type, RepetitionFactor,
        #                            NillIndicator)
        from tests.formal_types import Atom, Instance
        repetition = Pair(NAT_NUMBER,
                          Union(NAT_NUMBER, Enumeration(UNBOUNDED)))
        formal = Tuple(
            NAME,
            Instance(TypeName),
            Atom("RepetitionFactor",
                 lambda v: isinstance(v, RepetitionFactor)
                 and repetition.contains(v.as_pair())),
            BOOLEAN)
        eld = ElementDeclaration("Book", _string_ref(),
                                 RepetitionFactor(0, UNBOUNDED))
        assert formal.contains(eld.as_tuple())


class TestSimpleContentType:
    def test_shape(self):
        # Example 5: decimal base with a currency attribute.
        sct = SimpleContentType(
            base=TypeName(xsd("decimal")),
            attributes=AttributeDeclarations(
                (("currency", _string_ref()),)))
        assert sct.base.qname.local == "decimal"
        assert sct.attributes.names() == ("currency",)
