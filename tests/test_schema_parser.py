"""Tests for the XSD parser and writer over the paper's examples."""

import pytest

from repro.errors import SchemaSyntaxError, TypeUsageError
from repro.xmlio import QName, XSD_NAMESPACE
from repro.schema import (
    CombinationFactor,
    ComplexContentType,
    DocumentSchema,
    ElementDeclaration,
    GroupDefinition,
    InlineSimpleType,
    RepetitionFactor,
    SimpleContentType,
    TypeName,
    UNBOUNDED,
    parse_schema,
    write_schema,
)
from repro.workloads.fixtures import (
    EXAMPLE_1_SCHEMA,
    EXAMPLE_5_SCHEMA,
    EXAMPLE_6_SCHEMA,
    EXAMPLE_7_SCHEMA,
    LIBRARY_SCHEMA,
    wrap_in_schema,
)


class TestExample1:
    def test_three_declarations(self):
        schema = parse_schema(EXAMPLE_1_SCHEMA)
        group = schema.root_element.type.group
        names = [eld.name for eld in group.element_declarations()]
        assert names[:3] == ["Remark", "Book", "Note"]

    def test_nillable_only_on_first(self):
        schema = parse_schema(EXAMPLE_1_SCHEMA)
        remark, book, note = schema.root_element.type.group.members
        assert remark.nillable is True
        assert book.nillable is False
        assert note.nillable is False

    def test_repetition_factors(self):
        schema = parse_schema(EXAMPLE_1_SCHEMA)
        remark, book, note = schema.root_element.type.group.members
        assert remark.repetition == RepetitionFactor(1, 1)
        assert book.repetition == RepetitionFactor(0, 1000)
        assert note.repetition == RepetitionFactor(1, 1)

    def test_third_declaration_has_anonymous_type(self):
        schema = parse_schema(EXAMPLE_1_SCHEMA)
        note = schema.root_element.type.group.members[2]
        assert isinstance(note.type, ComplexContentType)


class TestExamples2And3:
    def test_sequence_group(self):
        schema = parse_schema(wrap_in_schema("""
          <xsd:element name="R"><xsd:complexType>
            <xsd:sequence>
              <xsd:element name="B" type="xsd:string"/>
              <xsd:element name="C" type="xsd:string"/>
            </xsd:sequence>
          </xsd:complexType></xsd:element>"""))
        group = schema.root_element.type.group
        assert group.combination is CombinationFactor.SEQUENCE
        assert [m.name for m in group.members] == ["B", "C"]

    def test_choice_group(self):
        schema = parse_schema(wrap_in_schema("""
          <xsd:element name="R"><xsd:complexType>
            <xsd:choice minOccurs="0" maxOccurs="unbounded">
              <xsd:element name="zero" type="xsd:string"/>
              <xsd:element name="one" type="xsd:string"/>
            </xsd:choice>
          </xsd:complexType></xsd:element>"""))
        group = schema.root_element.type.group
        assert group.combination is CombinationFactor.CHOICE
        assert group.repetition == RepetitionFactor(0, UNBOUNDED)


class TestExample5:
    def test_simple_content(self):
        schema = parse_schema(EXAMPLE_5_SCHEMA)
        price_type = schema.root_element.type
        assert isinstance(price_type, SimpleContentType)
        assert price_type.base == TypeName(
            QName(XSD_NAMESPACE, "decimal", "xsd"))
        assert price_type.attributes.names() == ("currency",)


class TestExample6:
    def test_mixed_flag(self):
        schema = parse_schema(EXAMPLE_6_SCHEMA)
        review = schema.root_element.type
        assert review.mixed is True

    def test_inner_book_not_mixed(self):
        schema = parse_schema(EXAMPLE_6_SCHEMA)
        book = schema.root_element.type.group.members[0]
        assert book.type.mixed is False
        inner_names = [m.name for m in book.type.group.members]
        assert inner_names == ["Title", "Author", "Date", "ISBN", "Publisher"]

    def test_attributes_of_example_4(self):
        schema = parse_schema(EXAMPLE_6_SCHEMA)
        atds = schema.root_element.type.attributes
        assert atds.names() == ("InStock", "Reviewer")
        assert atds.type_of("InStock").qname.local == "boolean"


class TestExample7:
    def test_named_and_anonymous_types(self):
        schema = parse_schema(EXAMPLE_7_SCHEMA)
        assert schema.target_namespace == "http://www.books.org"
        assert len(schema.complex_types) == 1
        (qname,) = schema.complex_types
        assert qname == QName("http://www.books.org", "BookPublication")
        assert isinstance(schema.root_element.type, ComplexContentType)

    def test_book_references_named_type(self):
        schema = parse_schema(EXAMPLE_7_SCHEMA)
        (book,) = schema.root_element.type.group.members
        assert book.name == "Book"
        assert book.repetition == RepetitionFactor(1, UNBOUNDED)
        resolved = schema.resolve(book.type)
        assert isinstance(resolved, ComplexContentType)

    def test_library_schema_parses(self):
        schema = parse_schema(LIBRARY_SCHEMA)
        assert schema.root_element.name == "library"
        assert len(schema.complex_types) == 1


class TestInlineSimpleTypes:
    def test_restriction_with_facets(self):
        schema = parse_schema(wrap_in_schema("""
          <xsd:element name="Grade">
            <xsd:simpleType>
              <xsd:restriction base="xsd:integer">
                <xsd:minInclusive value="1"/>
                <xsd:maxInclusive value="5"/>
              </xsd:restriction>
            </xsd:simpleType>
          </xsd:element>"""))
        assert isinstance(schema.root_element.type, InlineSimpleType)
        simple = schema.root_element.type.simple_type
        assert simple.validate("3")
        assert not simple.validate("6")

    def test_named_simple_type(self):
        schema = parse_schema(wrap_in_schema("""
          <xsd:simpleType name="Digits">
            <xsd:restriction base="xsd:string">
              <xsd:pattern value="[0-9]+"/>
            </xsd:restriction>
          </xsd:simpleType>
          <xsd:element name="Code" type="Digits"/>"""))
        resolved = schema.resolve(schema.root_element.type)
        assert resolved.validate("123")
        assert not resolved.validate("abc")

    def test_enumeration(self):
        schema = parse_schema(wrap_in_schema("""
          <xsd:element name="Color">
            <xsd:simpleType>
              <xsd:restriction base="xsd:string">
                <xsd:enumeration value="red"/>
                <xsd:enumeration value="blue"/>
              </xsd:restriction>
            </xsd:simpleType>
          </xsd:element>"""))
        simple = schema.root_element.type.simple_type
        assert simple.validate("red")
        assert not simple.validate("green")

    def test_list_type(self):
        schema = parse_schema(wrap_in_schema("""
          <xsd:element name="Scores">
            <xsd:simpleType>
              <xsd:list itemType="xsd:integer"/>
            </xsd:simpleType>
          </xsd:element>"""))
        simple = schema.root_element.type.simple_type
        assert simple.parse("1 2 3") == (1, 2, 3)

    def test_union_type(self):
        schema = parse_schema(wrap_in_schema("""
          <xsd:element name="Value">
            <xsd:simpleType>
              <xsd:union memberTypes="xsd:integer xsd:boolean"/>
            </xsd:simpleType>
          </xsd:element>"""))
        simple = schema.root_element.type.simple_type
        assert simple.parse("42") == 42
        assert simple.parse("true") is True


class TestErrors:
    def test_two_global_elements_rejected(self):
        with pytest.raises(SchemaSyntaxError):
            parse_schema(wrap_in_schema(
                '<xsd:element name="A" type="xsd:string"/>'
                '<xsd:element name="B" type="xsd:string"/>'))

    def test_no_global_element_rejected(self):
        with pytest.raises(SchemaSyntaxError):
            parse_schema(wrap_in_schema(""))

    def test_unknown_type_reference_rejected(self):
        with pytest.raises(TypeUsageError):
            parse_schema(wrap_in_schema(
                '<xsd:element name="A" type="Nope"/>'))

    def test_complex_attribute_type_rejected(self):
        # The attribute's own enclosing type: refused while it compiles.
        with pytest.raises(TypeUsageError, match="attribute 'a'"):
            parse_schema(wrap_in_schema("""
              <xsd:complexType name="R">
                <xsd:attribute name="a" type="R"/>
              </xsd:complexType>
              <xsd:element name="A" type="R"/>"""))

    def test_complex_simple_content_base_rejected(self):
        with pytest.raises(TypeUsageError, match="simple content base"):
            parse_schema(wrap_in_schema("""
              <xsd:complexType name="S"><xsd:sequence/></xsd:complexType>
              <xsd:element name="A">
                <xsd:complexType>
                  <xsd:simpleContent><xsd:extension base="S"/>
                  </xsd:simpleContent>
                </xsd:complexType>
              </xsd:element>"""))

    def test_type_attribute_and_inline_type_conflict(self):
        with pytest.raises(SchemaSyntaxError):
            parse_schema(wrap_in_schema("""
              <xsd:element name="A" type="xsd:string">
                <xsd:complexType><xsd:sequence/></xsd:complexType>
              </xsd:element>"""))

    def test_unsupported_construct_rejected(self):
        with pytest.raises(SchemaSyntaxError):
            parse_schema(wrap_in_schema(
                '<xsd:attributeGroup name="g"/>'
                '<xsd:element name="A" type="xsd:string"/>'))

    def test_element_missing_name_rejected(self):
        with pytest.raises(SchemaSyntaxError):
            parse_schema(wrap_in_schema(
                '<xsd:element type="xsd:string"/>'))

    def test_mixed_simple_content_rejected(self):
        with pytest.raises(SchemaSyntaxError):
            parse_schema(wrap_in_schema("""
              <xsd:element name="A">
                <xsd:complexType mixed="true">
                  <xsd:simpleContent>
                    <xsd:extension base="xsd:string"/>
                  </xsd:simpleContent>
                </xsd:complexType>
              </xsd:element>"""))


class TestWriterRoundTrip:
    @pytest.mark.parametrize("source", [
        EXAMPLE_1_SCHEMA,
        EXAMPLE_5_SCHEMA,
        EXAMPLE_6_SCHEMA,
        EXAMPLE_7_SCHEMA,
        LIBRARY_SCHEMA,
    ])
    def test_write_then_parse_preserves_structure(self, source):
        first = parse_schema(source)
        second = parse_schema(write_schema(first))
        assert _schemas_equal(first, second)

    def test_written_text_is_parseable_xsd(self):
        text = write_schema(parse_schema(EXAMPLE_7_SCHEMA))
        assert "xsd:schema" in text
        assert 'maxOccurs="unbounded"' in text


def _schemas_equal(a: DocumentSchema, b: DocumentSchema) -> bool:
    return (_elements_equal(a.root_element, b.root_element)
            and set(a.complex_types) == set(b.complex_types)
            and all(_types_equal(a.complex_types[k], b.complex_types[k])
                    for k in a.complex_types)
            and a.target_namespace == b.target_namespace)


def _elements_equal(a: ElementDeclaration, b: ElementDeclaration) -> bool:
    return (a.name == b.name and a.repetition == b.repetition
            and a.nillable == b.nillable and _types_equal(a.type, b.type))


def _types_equal(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, TypeName):
        return a == b
    if isinstance(a, InlineSimpleType):
        # Simple types compare by observable behaviour in round-trips.
        return True
    if isinstance(a, SimpleContentType):
        return (a.base == b.base
                and a.attributes.items == b.attributes.items)
    if isinstance(a, ComplexContentType):
        if a.mixed != b.mixed:
            return False
        if (a.group is None) != (b.group is None):
            return False
        if a.group is not None and not _groups_equal(a.group, b.group):
            return False
        return _attrs_equal(a.attributes, b.attributes)
    return False


def _attrs_equal(a, b) -> bool:
    if a.names() != b.names():
        return False
    return all(_types_equal(a.type_of(n), b.type_of(n)) for n in a.names())


def _groups_equal(a: GroupDefinition, b: GroupDefinition) -> bool:
    if (a.combination != b.combination or a.repetition != b.repetition
            or len(a.members) != len(b.members)):
        return False
    for ma, mb in zip(a.members, b.members):
        if isinstance(ma, ElementDeclaration):
            if not (isinstance(mb, ElementDeclaration)
                    and _elements_equal(ma, mb)):
                return False
        elif not (isinstance(mb, GroupDefinition)
                  and _groups_equal(ma, mb)):
            return False
    return True
