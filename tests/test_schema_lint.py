"""Tests for the static schema diagnostics."""

import pytest

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

    @pytest.mark.parametrize("max_occurs", [200_000, 10**6])
    def test_huge_max_occurs_is_never_expanded(self, max_occurs):
        # Valid at any bound; expanding the copies could not finish.
        schema = parse_schema(wrap_in_schema(f"""
          <xsd:element name="R"><xsd:complexType>
            <xsd:sequence>
              <xsd:element name="a" type="xsd:string"
                           maxOccurs="{max_occurs}"/>
              <xsd:element name="b" type="xsd:string" minOccurs="0"/>
            </xsd:sequence>
          </xsd:complexType></xsd:element>"""))
        assert lint_schema(schema) == []

    def test_counted_conflict_flagged(self):
        # a{1,2} a: after one a, a second copy competes with the last a.
        schema = parse_schema(wrap_in_schema("""
          <xsd:element name="R"><xsd:complexType>
            <xsd:sequence>
              <xsd:sequence maxOccurs="2">
                <xsd:element name="a" type="xsd:string"/>
              </xsd:sequence>
              <xsd:element name="a" type="xsd:string"/>
            </xsd:sequence>
          </xsd:complexType></xsd:element>"""))
        assert _messages(lint_schema(schema)) == [
            "content model violates Unique Particle Attribution: "
            "competing particles for ['a']"]

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

    def test_max_occurs_zero_on_a_nested_group(self):
        schema = parse_schema(wrap_in_schema("""
          <xsd:element name="R"><xsd:complexType>
            <xsd:sequence>
              <xsd:choice minOccurs="0" maxOccurs="0">
                <xsd:element name="Gone" type="xsd:string"/>
              </xsd:choice>
              <xsd:element name="Kept" type="xsd:string"/>
            </xsd:sequence>
          </xsd:complexType></xsd:element>"""))
        assert _messages(lint_schema(schema)) == [
            "maxOccurs=0 makes this choice group unusable"]

    def test_type_used_by_a_later_type_is_used(self):
        # Inner is used by Outer, declared after it: no warning.
        schema = parse_schema(wrap_in_schema("""
          <xsd:complexType name="Inner">
            <xsd:sequence>
              <xsd:element name="X" type="xsd:string"/>
            </xsd:sequence>
          </xsd:complexType>
          <xsd:complexType name="Outer">
            <xsd:sequence>
              <xsd:element name="I" type="Inner"/>
            </xsd:sequence>
          </xsd:complexType>
          <xsd:element name="r" type="Outer"/>"""))
        assert lint_schema(schema) == []

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
