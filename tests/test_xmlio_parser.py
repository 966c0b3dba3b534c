"""Unit tests for the from-scratch XML parser."""

import xml.parsers.expat

import pytest

from repro.errors import XmlSyntaxError
from repro.xmlio import (
    QName,
    XmlElement,
    XmlText,
    parse_document,
    parse_element,
)


class TestBasicParsing:
    def test_minimal_document(self):
        doc = parse_document("<a/>")
        assert doc.root.name == QName("", "a")
        assert doc.root.children == []
        assert doc.root.attributes == {}

    def test_element_with_text(self):
        root = parse_element("<a>hello</a>")
        assert len(root.children) == 1
        assert isinstance(root.children[0], XmlText)
        assert root.children[0].text == "hello"

    def test_nested_elements(self):
        root = parse_element("<a><b/><c><d/></c></a>")
        names = [c.name.local for c in root.element_children()]
        assert names == ["b", "c"]
        assert root.element_children()[1].element_children()[0].name.local == "d"

    def test_attributes(self):
        root = parse_element('<a x="1" y="two"/>')
        assert root.get("x") == "1"
        assert root.get("y") == "two"
        assert root.get("z") is None
        assert root.get("z", "dflt") == "dflt"

    def test_attribute_order_preserved(self):
        root = parse_element('<a b="1" a="2" c="3"/>')
        assert [q.local for q in root.attributes] == ["b", "a", "c"]

    def test_single_quoted_attribute(self):
        root = parse_element("<a x='v'/>")
        assert root.get("x") == "v"

    def test_mixed_content(self):
        root = parse_element("<p>one<b>two</b>three</p>")
        kinds = ["text" if isinstance(c, XmlText) else "elem"
                 for c in root.children]
        assert kinds == ["text", "elem", "text"]
        assert root.text_content() == "onetwothree"

    def test_xml_declaration(self):
        doc = parse_document('<?xml version="1.0" encoding="UTF-8"?>\n<a/>')
        assert doc.root.name.local == "a"

    def test_doctype_skipped(self):
        doc = parse_document('<!DOCTYPE a [<!ELEMENT a EMPTY>]><a/>')
        assert doc.root.name.local == "a"

    def test_comments_skipped(self):
        root = parse_element("<a><!-- hidden --><b/><!-- more --></a>")
        assert [c.name.local for c in root.element_children()] == ["b"]

    def test_processing_instruction_skipped(self):
        root = parse_element("<a><?target data?><b/></a>")
        assert [c.name.local for c in root.element_children()] == ["b"]

    def test_base_uri_recorded(self):
        doc = parse_document("<a/>", base_uri="http://example.org/doc.xml")
        assert doc.base_uri == "http://example.org/doc.xml"


class TestCharacterData:
    def test_predefined_entities(self):
        root = parse_element("<a>&lt;&gt;&amp;&apos;&quot;</a>")
        assert root.text_content() == "<>&'\""

    def test_decimal_character_reference(self):
        root = parse_element("<a>&#65;&#66;</a>")
        assert root.text_content() == "AB"

    def test_hex_character_reference(self):
        root = parse_element("<a>&#x41;&#x1F600;</a>")
        assert root.text_content() == "A\U0001F600"

    def test_cdata_section(self):
        root = parse_element("<a><![CDATA[<not> &parsed;]]></a>")
        assert root.text_content() == "<not> &parsed;"

    def test_cdata_merges_with_text(self):
        root = parse_element("<a>x<![CDATA[y]]>z</a>")
        assert len(root.children) == 1
        assert root.text_content() == "xyz"

    def test_entity_in_attribute(self):
        root = parse_element('<a x="a&amp;b&lt;c"/>')
        assert root.get("x") == "a&b<c"

    def test_attribute_whitespace_normalized(self):
        root = parse_element('<a x="a\n b\tc"/>')
        assert root.get("x") == "a  b c"

    def test_crlf_normalized_in_content(self):
        root = parse_element("<a>l1\r\nl2\rl3</a>")
        assert root.text_content() == "l1\nl2\nl3"

    def test_crlf_is_one_line_end_in_attribute_value(self):
        # Section 2.11 first, then the section 3.3.3 normalization.
        root = parse_element('<a x="p\r\nq" y="r\rs"/>')
        assert root.get("x") == "p q"
        assert root.get("y") == "r s"

    def test_crlf_normalized_in_cdata(self):
        root = parse_element("<a><![CDATA[p\r\nq\rr]]></a>")
        assert root.text_content() == "p\nq\nr"

    def test_adjacent_text_merged(self):
        root = parse_element("<a>x&amp;y</a>")
        assert len(root.children) == 1


class TestNamespaces:
    def test_default_namespace(self):
        root = parse_element('<a xmlns="urn:x"><b/></a>')
        assert root.name == QName("urn:x", "a")
        assert root.element_children()[0].name == QName("urn:x", "b")

    def test_prefixed_namespace(self):
        root = parse_element('<p:a xmlns:p="urn:p"/>')
        assert root.name == QName("urn:p", "a")
        assert root.name.prefix == "p"

    def test_unprefixed_attribute_has_no_namespace(self):
        root = parse_element('<a xmlns="urn:x" k="v"/>')
        assert root.attributes == {QName("", "k"): "v"}

    def test_prefixed_attribute(self):
        root = parse_element('<a xmlns:p="urn:p" p:k="v"/>')
        assert root.attributes == {QName("urn:p", "k"): "v"}

    def test_namespace_scoping(self):
        root = parse_element(
            '<a xmlns="urn:outer"><b xmlns="urn:inner"><c/></b><d/></a>')
        b, d = root.element_children()
        assert b.name.uri == "urn:inner"
        assert b.element_children()[0].name.uri == "urn:inner"
        assert d.name.uri == "urn:outer"

    def test_undeclared_prefix_rejected(self):
        with pytest.raises(XmlSyntaxError):
            parse_element("<p:a/>")

    def test_xml_prefix_is_builtin(self):
        root = parse_element('<a xml:lang="en"/>')
        (qname,) = root.attributes
        assert qname.uri == "http://www.w3.org/XML/1998/namespace"

    def test_qname_equality_ignores_prefix(self):
        assert QName("urn:x", "n", "p") == QName("urn:x", "n", "q")
        assert hash(QName("urn:x", "n", "p")) == hash(QName("urn:x", "n", "q"))


class TestWellFormednessErrors:
    @pytest.mark.parametrize("text", [
        "",
        "just text",
        "<a>",
        "<a></b>",
        "<a><b></a></b>",
        "<a/><b/>",
        "<a x=1/>",
        '<a x="1" x="2"/>',
        "<a><b/>",
        '<a x="<"/>',
        "<a>&undefined;</a>",
        "<a>&#xZZ;</a>",
        "<a>]]></a>",
        "<a><!-- -- --></a>",
        "<1a/>",
        "<a><?xml bad?></a>",
        '<a xmlns:p=""/>',
        "<a b:c='1'/>",
        "<a>&#1;</a>",
        '<a x="\x01"/>',
        '<a x="\ud800"/>',
        '<a x="\ufffe"/>',
        "<a><![CDATA[\x01]]></a>",
        "<a><![CDATA[\ud800]]></a>",
        "<a><![CDATA[\ufffe]]></a>",
        "<a><!-- \x01 --></a>",
        "<a><!-- \ud800 --></a>",
        "<a><!-- \ufffe --></a>",
        "<a><?pi \x01?></a>",
        "<a><?pi \ud800?></a>",
        "<a><?pi \ufffe?></a>",
    ])
    def test_rejected(self, text):
        with pytest.raises(XmlSyntaxError):
            parse_document(text)

    def test_error_carries_position(self):
        with pytest.raises(XmlSyntaxError) as exc_info:
            parse_document("<a>\n  <b></c>\n</a>")
        assert exc_info.value.line == 2

    def test_illegal_character_is_located(self):
        with pytest.raises(XmlSyntaxError) as exc_info:
            parse_document('<a>\r\n  <b x="ok"/><!-- \ufffe --></a>')
        error = exc_info.value
        assert "U+FFFE" in str(error)
        assert (error.line, error.column) == (2, 19)

    def test_character_reference_to_illegal_character_refused(self):
        with pytest.raises(XmlSyntaxError, match="character reference"):
            parse_document("<a>&#1;</a>")

    def test_content_after_root_rejected(self):
        with pytest.raises(XmlSyntaxError):
            parse_document("<a/>trailing")


def _refused_like_expat(text):
    """*text* is refused by expat and by the parser, at the position
    expat names (expat counts columns from 0)."""
    expat = xml.parsers.expat.ParserCreate()
    with pytest.raises(xml.parsers.expat.ExpatError) as expected:
        expat.Parse(text.encode("utf-8"), True)
    with pytest.raises(XmlSyntaxError) as refused:
        parse_document(text)
    assert (refused.value.line, refused.value.column) == (
        expected.value.lineno, expected.value.offset + 1)
    return refused.value


class TestPrologGrammar:
    """The XML declaration (production [23]), the PI target
    (production [16]) and the DOCTYPE's root name (production [28])
    are checked, not skipped; a DOCTYPE's quoted literals are skipped
    whole."""

    def test_pi_target_needs_whitespace_or_end_in_the_prolog(self):
        error = _refused_like_expat('<?x=ml version="1.0"?><a/>')
        assert "target 'x'" in str(error)

    def test_pi_target_needs_whitespace_or_end_in_content(self):
        _refused_like_expat("<a><?p=x?></a>")

    def test_declaration_requires_version(self):
        error = _refused_like_expat('<?xml veion="1.0"?><a/>')
        assert "'version'" in str(error)

    def test_declaration_refuses_an_unknown_pseudo_attribute(self):
        _refused_like_expat('<?xml version="1.0" encodng="x"?><a/>')

    def test_standalone_is_yes_or_no(self):
        error = _refused_like_expat(
            '<?xml version="1.0" encoding="UTF-8" standalone="maybe"?>'
            "<a/>")
        assert "standalone" in str(error)

    def test_declaration_only_at_offset_zero(self):
        _refused_like_expat(' <?xml version="1.0"?><a/>')

    def test_doctype_system_literal_may_hold_a_gt(self):
        text = '<!DOCTYPE a SYSTEM "x>y"><a/>'
        xml.parsers.expat.ParserCreate().Parse(text.encode("utf-8"), True)
        assert parse_document(text).root.name == QName("", "a")

    def test_doctype_entity_value_may_hold_a_bracket(self):
        text = '<!DOCTYPE a [<!ENTITY e "]">]><a/>'
        xml.parsers.expat.ParserCreate().Parse(text.encode("utf-8"), True)
        assert parse_document(text).root.name == QName("", "a")

    def test_doctype_requires_a_root_name(self):
        _refused_like_expat("<!DOCTYPE><a/>")

    @pytest.mark.parametrize("text,at", [
        ('<!DOCTYPE a [<!ENTITY e "x">]><a>&e;</a>', (1, 34)),
        ('<!DOCTYPE a [\n  <!ENTITY % p "y">\n  <!ENTITY e "z">'
         '\n]>\n<a>\n  <b c="&e;"/></a>', (6, 9)),
    ])
    def test_an_internal_subset_entity_is_refused_by_name(self, text, at):
        """expat expands the entity; this parser does not, and says so
        where the reference is, not that the entity is undefined."""
        xml.parsers.expat.ParserCreate().Parse(text.encode("utf-8"), True)
        with pytest.raises(XmlSyntaxError) as refused:
            parse_document(text)
        assert str(refused.value).startswith(
            "reference to entity &e; declared in the DOCTYPE's internal "
            "subset: internal-subset entities are not expanded")
        assert (refused.value.line, refused.value.column) == at
        # An entity the subset does not declare (a parameter entity is
        # not a general one) is undefined, at the same place.
        for name in ("u", "p"):
            with pytest.raises(XmlSyntaxError) as undefined:
                parse_document(text.replace("&e;", f"&{name};"))
            assert str(undefined.value).startswith(
                f"reference to undefined entity &{name};")
            assert (undefined.value.line, undefined.value.column) == at

    @pytest.mark.parametrize("text", [
        '<?xml version="1.0" encoding="UTF-8"?>\n<a/>',
        "<?xml version='1.0' encoding='utf-8' standalone='yes' ?><a/>",
        '<?xml version = "1.1" standalone="no"?><a/>',
        "\ufeff<?xml version=\"1.0\"?><a/>",
        '<?xml-stylesheet href="s.css"?><a><?pi?><?pi data?></a>',
        "<!DOCTYPE a [<!-- ' --><?pi \"?>]><a/>",
    ])
    def test_well_formed_prologs_parse(self, text):
        xml.parsers.expat.ParserCreate().Parse(text.encode("utf-8"), True)
        assert parse_document(text).root.name == QName("", "a")


class TestNodeHelpers:
    def test_find_and_find_all(self):
        root = parse_element("<a><b i='1'/><c/><b i='2'/></a>")
        assert root.find("b").get("i") == "1"
        assert root.find("missing") is None
        assert [e.get("i") for e in root.find_all("b")] == ["1", "2"]

    def test_iter_preorder(self):
        root = parse_element("<a><b><c/></b><d/></a>")
        assert [e.name.local for e in root.iter()] == ["a", "b", "c", "d"]

    def test_append_merges_text(self):
        element = XmlElement(QName("", "a"))
        element.append(XmlText("x"))
        element.append(XmlText("y"))
        assert len(element.children) == 1
        assert element.text_content() == "xy"
