"""Tests for the static schema diagnostics."""

from repro.schema import lint_schema, parse_schema
from repro.workloads.fixtures import (
    EXAMPLE_6_SCHEMA,
    EXAMPLE_7_SCHEMA,
    LIBRARY_SCHEMA,
    wrap_in_schema,
)


def _messages(issues):
    return [issue.message for issue in issues]


class TestCleanSchemas:
    def test_paper_examples_are_clean(self):
        for source in (EXAMPLE_6_SCHEMA, EXAMPLE_7_SCHEMA, LIBRARY_SCHEMA):
            assert lint_schema(parse_schema(source)) == []


class TestUpaDetection:
    def test_competing_choice_branches(self):
        schema = parse_schema(wrap_in_schema("""
          <xsd:element name="R"><xsd:complexType>
            <xsd:choice>
              <xsd:sequence>
                <xsd:element name="A" type="xsd:string"/>
                <xsd:element name="B" type="xsd:string"/>
              </xsd:sequence>
              <xsd:sequence>
                <xsd:element name="A" type="xsd:string"/>
                <xsd:element name="C" type="xsd:string"/>
              </xsd:sequence>
            </xsd:choice>
          </xsd:complexType></xsd:element>"""))
        issues = lint_schema(schema)
        assert any(issue.severity == "error"
                   and "Unique Particle Attribution" in issue.message
                   for issue in issues)

    def test_optional_prefix_ambiguity(self):
        # (A? , A) is ambiguous: an A can bind to either particle.
        schema = parse_schema(wrap_in_schema("""
          <xsd:element name="R"><xsd:complexType>
            <xsd:sequence>
              <xsd:sequence minOccurs="0">
                <xsd:element name="A" type="xsd:string"/>
              </xsd:sequence>
              <xsd:sequence>
                <xsd:element name="A" type="xsd:string"/>
              </xsd:sequence>
            </xsd:sequence>
          </xsd:complexType></xsd:element>"""))
        issues = lint_schema(schema)
        assert any(issue.severity == "error" for issue in issues)

    def test_counted_particle_not_flagged(self):
        # B{0,9} expands to many B positions but is perfectly
        # deterministic — a naive checker would false-positive here.
        schema = parse_schema(wrap_in_schema("""
          <xsd:element name="R"><xsd:complexType>
            <xsd:sequence>
              <xsd:element name="A" type="xsd:string"/>
              <xsd:element name="B" type="xsd:string"
                           minOccurs="0" maxOccurs="9"/>
            </xsd:sequence>
          </xsd:complexType></xsd:element>"""))
        assert lint_schema(schema) == []

    def test_nested_conflict_reported_once(self):
        # The conflict sits in the inner choice; the enclosing sequence
        # must not report it a second time at the same location.
        schema = parse_schema(wrap_in_schema("""
          <xsd:element name="R"><xsd:complexType>
            <xsd:sequence>
              <xsd:element name="X" type="xsd:string"/>
              <xsd:choice>
                <xsd:sequence>
                  <xsd:element name="A" type="xsd:string"/>
                  <xsd:element name="B" type="xsd:string"/>
                </xsd:sequence>
                <xsd:sequence>
                  <xsd:element name="A" type="xsd:string"/>
                  <xsd:element name="C" type="xsd:string"/>
                </xsd:sequence>
              </xsd:choice>
            </xsd:sequence>
          </xsd:complexType></xsd:element>"""))
        errors = [issue for issue in lint_schema(schema)
                  if issue.severity == "error"]
        assert len(errors) == 1
        assert "['A']" in errors[0].message


class TestWarnings:
    def test_max_occurs_zero(self):
        schema = parse_schema(wrap_in_schema("""
          <xsd:element name="R"><xsd:complexType>
            <xsd:sequence>
              <xsd:element name="Gone" type="xsd:string"
                           minOccurs="0" maxOccurs="0"/>
              <xsd:element name="Kept" type="xsd:string"/>
            </xsd:sequence>
          </xsd:complexType></xsd:element>"""))
        issues = lint_schema(schema)
        assert any("maxOccurs=0" in m for m in _messages(issues))

    def test_unused_named_type(self):
        schema = parse_schema(wrap_in_schema("""
          <xsd:complexType name="Orphan">
            <xsd:sequence>
              <xsd:element name="X" type="xsd:string"/>
            </xsd:sequence>
          </xsd:complexType>
          <xsd:element name="R" type="xsd:string"/>"""))
        issues = lint_schema(schema)
        assert any("never used" in m for m in _messages(issues))

    def test_errors_sort_before_warnings(self):
        schema = parse_schema(wrap_in_schema("""
          <xsd:complexType name="Orphan">
            <xsd:choice>
              <xsd:sequence>
                <xsd:element name="A" type="xsd:string"/>
              </xsd:sequence>
              <xsd:sequence>
                <xsd:element name="A" type="xsd:string"/>
              </xsd:sequence>
            </xsd:choice>
          </xsd:complexType>
          <xsd:element name="R" type="xsd:string"/>"""))
        issues = lint_schema(schema)
        assert issues[0].severity == "error"
