"""Tests for character classification and QName handling."""

import pytest
from hypothesis import assume, given, strategies as st

from repro.errors import ConformanceError, LexicalError, XmlSyntaxError
from repro.xmlio import QName, split_prefixed, xdt, xsd
from repro.xmlio import parse_document
from repro.xmlio.chars import _NAME_EXTRA_RANGES, _NAME_START_RANGES
from repro.xmlio.chars import (
    collapse_whitespace,
    is_name,
    is_name_char,
    is_name_start_char,
    is_ncname,
    is_whitespace,
    is_xml_char,
    replace_whitespace,
)


class TestCharClasses:
    def test_whitespace(self):
        for ch in " \t\r\n":
            assert is_whitespace(ch)
        assert not is_whitespace("x")
        assert not is_whitespace(" ")  # nbsp is not XML whitespace

    def test_name_start_chars(self):
        for ch in ("a", "Z", "_", ":", "é", "Ж", "中"):
            assert is_name_start_char(ch), ch
        for ch in ("1", "-", ".", " ", "!"):
            assert not is_name_start_char(ch), ch

    def test_name_chars(self):
        for ch in ("a", "1", "-", ".", "·"):
            assert is_name_char(ch), ch
        assert not is_name_char(" ")

    def test_xml_chars(self):
        assert is_xml_char("a")
        assert is_xml_char("\t")
        assert is_xml_char("\U0001F600")
        assert not is_xml_char("\x00")
        assert not is_xml_char("\x0b")
        assert not is_xml_char("￾")

    def test_is_name(self):
        assert is_name("abc")
        assert is_name("_a-1.b")
        assert is_name("p:local")
        assert not is_name("")
        assert not is_name("1ab")
        assert not is_name("a b")

    def test_is_ncname(self):
        assert is_ncname("abc")
        assert not is_ncname("p:local")
        assert not is_ncname("")


#: Every range-table endpoint and its two neighbours.
_ENDPOINTS = sorted({chr(code + step)
                     for lo, hi in _NAME_START_RANGES + _NAME_EXTRA_RANGES
                     for code in (lo, hi) for step in (-1, 0, 1)})

_NAME_ALPHABET = st.one_of(
    st.characters(),
    st.characters(min_codepoint=0x10000),
    st.sampled_from(_ENDPOINTS),
)

#: XML whitespace and the markup characters of a start tag.
_MARKUP = " \t\r\n<>/='\"&"


class TestCompiledClasses:
    """The compiled ``NAME`` class against the range tables it is
    built from, and the parser that steps by it."""

    @given(st.text(_NAME_ALPHABET))
    def test_is_name_matches_the_range_tables(self, text):
        assert is_name(text) == (bool(text)
                                 and is_name_start_char(text[0])
                                 and all(map(is_name_char, text[1:])))

    def test_every_endpoint_neighbour_is_classified_by_the_tables(self):
        for ch in _ENDPOINTS:
            assert is_name(ch) == is_name_start_char(ch), hex(ord(ch))
            assert is_name("_" + ch) == is_name_char(ch), hex(ord(ch))

    @given(st.text(_NAME_ALPHABET.filter(lambda ch: ch not in _MARKUP)))
    def test_element_name_parses_iff_ncname(self, text):
        # The two built-in prefixes are bound without a declaration.
        assume(not text.startswith(("xml:", "xmlns:")))
        try:
            parse_document(f"<{text}/>")
        except XmlSyntaxError:
            accepted = False
        else:
            accepted = True
        assert accepted == is_ncname(text)


class TestWhitespaceFacetHelpers:
    def test_collapse(self):
        assert collapse_whitespace("  a\t\tb \n c  ") == "a b c"
        assert collapse_whitespace("") == ""
        assert collapse_whitespace("   ") == ""

    def test_replace(self):
        assert replace_whitespace("a\tb\nc\rd") == "a b c d"
        assert replace_whitespace("a  b") == "a  b"  # spaces untouched


class TestQName:
    def test_clark_and_lexical(self):
        qname = QName("urn:x", "local", "p")
        assert qname.clark == "{urn:x}local"
        assert qname.lexical == "p:local"
        assert str(qname) == "p:local"

    def test_no_namespace(self):
        qname = QName("", "local")
        assert qname.clark == "local"
        assert qname.lexical == "local"

    def test_invalid_local_rejected(self):
        with pytest.raises(XmlSyntaxError):
            QName("", "not a name")

    def test_invalid_prefix_rejected(self):
        with pytest.raises(XmlSyntaxError):
            QName("urn:x", "ok", "bad prefix")

    def test_split_prefixed(self):
        assert split_prefixed("a:b") == ("a", "b")
        assert split_prefixed("plain") == ("", "plain")

    @pytest.mark.parametrize("bad", ["a:b:c", ":x", "x:"])
    def test_split_prefixed_rejects(self, bad):
        with pytest.raises(XmlSyntaxError):
            split_prefixed(bad)

    def test_helpers(self):
        assert xsd("string").uri == "http://www.w3.org/2001/XMLSchema"
        assert xsd("string").prefix == "xs"
        assert xdt("untypedAtomic").prefix == "xdt"


class TestErrorTypes:
    def test_conformance_error_carries_item_and_path(self):
        error = ConformanceError("5.1.1", "bad value", path="/a/b[1]")
        assert error.item == "5.1.1"
        assert error.path == "/a/b[1]"
        assert "5.1.1" in str(error)
        assert "/a/b[1]" in str(error)

    def test_lexical_error_fields(self):
        error = LexicalError("xs:integer", "abc", "not a number")
        assert error.type_name == "xs:integer"
        assert error.literal == "abc"
        assert "not a number" in str(error)

    def test_xml_syntax_error_position(self):
        error = XmlSyntaxError("oops", line=3, column=7)
        assert error.line == 3
        assert "line 3" in str(error)


class TestFormalConstructorExtras:
    def test_instance_with_projection(self):
        from tests.formal_types import Instance, NAT_NUMBER, Pair

        class Point:
            def __init__(self, x, y):
                self.x, self.y = x, y

        formal = Instance(Point, project=lambda p: (p.x, p.y),
                          inner=Pair(NAT_NUMBER, NAT_NUMBER))
        assert formal.contains(Point(1, 2))
        assert not formal.contains(Point(-1, 2))
        assert not formal.contains("not a point")

    def test_union_of_instances(self):
        from tests.formal_types import union_of_instances
        formal = union_of_instances(int, str)
        assert formal.contains(3)
        assert formal.contains("x")
        assert not formal.contains(3.5)

    def test_repr_is_name(self):
        from tests.formal_types import Seq, NAME
        assert repr(Seq(NAME)) == "Seq(Name)"
