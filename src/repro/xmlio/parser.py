"""A from-scratch, non-validating XML 1.0 parser.

The parser is a hand-written recursive-descent scanner over the input
string, normalized for line ends and checked against production [2]
``Char`` once on input; it steps by token, one match of a compiled
character class each.  It supports the features a schema-described
document can use:

* the XML declaration (checked against production [23], only at the
  start of the input) and a DOCTYPE, whose root name is read and whose
  rest is skipped (entities it defines are not expanded: a reference to
  one is refused by that name),
* elements with attributes and self-closing tags,
* character data, CDATA sections, character and predefined entity
  references,
* comments and processing instructions (skipped, as the paper's model
  deliberately leaves them out),
* namespace declaration and resolution (default and prefixed).

Well-formedness violations raise :class:`~repro.errors.XmlSyntaxError`
with the 1-based line and column of the offending position.
"""

from __future__ import annotations

import re

from repro.errors import XmlSyntaxError
from repro.xmlio.chars import (
    ILLEGAL_CHAR,
    NAME,
    S,
    is_xml_char,
    replace_whitespace,
)
from repro.xmlio.nodes import XmlDocument, XmlElement, XmlText
from repro.xmlio.qname import XMLNS_NAMESPACE, QName, split_prefixed

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

#: Namespace bindings mandated by the XML namespaces recommendation.
_BUILTIN_BINDINGS = {
    "xml": "http://www.w3.org/XML/1998/namespace",
    "xmlns": XMLNS_NAMESPACE,
}

#: Production [14] CharData (less ``]]>``) up to markup or a reference.
_CHAR_DATA = re.compile("[^<&]+")

#: Production [10] up to markup, a reference or the closing quote.
_ATTRIBUTE_RUN = {'"': re.compile('[^"<&]*'), "'": re.compile("[^'<&]*")}

#: The pseudo-attributes of production [23] XMLDecl, in their order:
#: name, value (productions [26] VersionNum, [81] EncName, [32]), and
#: whether it is required.
_XML_DECL_FIELDS = (
    ("version", re.compile(r"1\.[0-9]+"), True),
    ("encoding", re.compile(r"[A-Za-z][A-Za-z0-9._-]*"), False),
    ("standalone", re.compile("yes|no"), False),
)


class _Scanner:
    """Cursor over the input text with error-position reporting."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.length = len(text)

    def error(self, message: str, pos: int | None = None) -> XmlSyntaxError:
        at = self.pos if pos is None else pos
        line = self.text.count("\n", 0, at) + 1
        last_nl = self.text.rfind("\n", 0, at)
        column = at - last_nl
        return XmlSyntaxError(message, line, column)

    def eof(self) -> bool:
        return self.pos >= self.length

    def peek(self) -> str:
        if self.pos >= self.length:
            raise self.error("unexpected end of input")
        return self.text[self.pos]

    def startswith(self, token: str) -> bool:
        return self.text.startswith(token, self.pos)

    def expect(self, token: str) -> None:
        if not self.startswith(token):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)

    def skip_whitespace(self) -> int:
        """Skip whitespace; return how many characters were skipped."""
        start = self.pos
        match = S.match(self.text, start)
        if match is not None:
            self.pos = match.end()
        return self.pos - start

    def read_name(self) -> str:
        match = NAME.match(self.text, self.pos)
        if match is None:
            raise self.error("expected a name")
        self.pos = match.end()
        return match.group()

    def read_until(self, token: str, context: str) -> str:
        end = self.text.find(token, self.pos)
        if end < 0:
            raise self.error(f"unterminated {context}")
        chunk = self.text[self.pos:end]
        self.pos = end + len(token)
        return chunk


class XmlParser:
    """Parses a complete XML document string into an :class:`XmlDocument`."""

    def __init__(self, text: str, base_uri: str | None = None) -> None:
        if text.startswith("﻿"):
            text = text[1:]
        # Line-end normalization (XML 1.0 section 2.11), once on input.
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        self._scanner = _Scanner(text)
        self._base_uri = base_uri
        # Namespace environment: list of dicts, innermost last.
        self._ns_stack: list[dict[str, str]] = [dict(_BUILTIN_BINDINGS)]
        #: General entities the DOCTYPE's internal subset declares.
        self._declared_entities: set[str] = set()

    def parse(self) -> XmlDocument:
        """Parse the whole input and return the document."""
        scanner = self._scanner
        illegal = ILLEGAL_CHAR.search(scanner.text)
        if illegal is not None:
            raise scanner.error(f"illegal character U+{ord(illegal[0]):04X}",
                                illegal.start())
        self._skip_prolog()
        if scanner.eof() or scanner.peek() != "<":
            raise scanner.error("expected the root element")
        root = self._parse_element()
        self._skip_misc()
        if not scanner.eof():
            raise scanner.error("content after the root element")
        return XmlDocument(root, base_uri=self._base_uri)

    # ------------------------------------------------------------------
    # Prolog and miscellaneous content

    def _skip_prolog(self) -> None:
        scanner = self._scanner
        # "<?xml" followed by whitespace is the declaration, and only at
        # offset 0; anywhere else it is a PI with the reserved target.
        if scanner.startswith("<?xml") \
                and S.match(scanner.text, len("<?xml")) is not None:
            self._parse_xml_decl()
        self._skip_misc()
        if scanner.startswith("<!DOCTYPE"):
            self._skip_doctype()
            self._skip_misc()

    def _parse_xml_decl(self) -> None:
        """Production [23]: ``version``, then an optional ``encoding``,
        then an optional ``standalone``, each after whitespace."""
        scanner = self._scanner
        text = scanner.text
        scanner.pos = len("<?xml")
        for name, pattern, required in _XML_DECL_FIELDS:
            start = scanner.pos
            if not (scanner.skip_whitespace() and scanner.startswith(name)):
                if required:
                    raise scanner.error(
                        f"expected {name!r} in the XML declaration")
                scanner.pos = start
                continue
            scanner.pos += len(name)
            scanner.skip_whitespace()
            scanner.expect("=")
            scanner.skip_whitespace()
            quote = scanner.peek()
            if quote not in ("'", '"'):
                raise scanner.error(f"{name} value must be quoted")
            scanner.pos += 1
            match = pattern.match(text, scanner.pos)
            if match is None or not text.startswith(quote, match.end()):
                raise scanner.error(
                    f"malformed {name} value in the XML declaration")
            scanner.pos = match.end() + 1
        scanner.skip_whitespace()
        scanner.expect("?>")

    def _skip_doctype(self) -> None:
        """Production [28] doctypedecl, skipped: whitespace and the root
        Name after ``<!DOCTYPE``, then everything to the closing ``>``.
        Quoted literals (the external ID's, the internal subset's) and
        the subset's comments and PIs are skipped whole, so a ``>``,
        ``[`` or ``]`` inside them ends nothing.  The names of the
        general entities the subset declares are kept, to name them
        when a reference is refused."""
        scanner = self._scanner
        scanner.expect("<!DOCTYPE")
        if not scanner.skip_whitespace():
            raise scanner.error("expected whitespace after '<!DOCTYPE'")
        scanner.read_name()
        depth = 0
        while True:
            if scanner.eof():
                raise scanner.error("unterminated DOCTYPE")
            ch = scanner.peek()
            if ch in "\"'":
                scanner.pos += 1
                scanner.read_until(ch, "literal in the DOCTYPE")
                continue
            if depth and scanner.startswith("<!--"):
                self._skip_comment()
                continue
            if depth and scanner.startswith("<?"):
                self._skip_pi()
                continue
            if depth and scanner.startswith("<!ENTITY"):
                scanner.pos += len("<!ENTITY")
                if scanner.skip_whitespace():
                    declared = NAME.match(scanner.text, scanner.pos)
                    if declared is not None:
                        self._declared_entities.add(declared.group())
                        scanner.pos = declared.end()
                continue
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            elif ch == ">" and depth == 0:
                scanner.pos += 1
                return
            scanner.pos += 1

    def _skip_misc(self) -> None:
        """Skip whitespace, comments and processing instructions."""
        scanner = self._scanner
        while True:
            scanner.skip_whitespace()
            if scanner.startswith("<!--"):
                self._skip_comment()
            elif scanner.startswith("<?"):
                self._skip_pi()
            else:
                return

    def _skip_comment(self) -> None:
        scanner = self._scanner
        scanner.expect("<!--")
        body = scanner.read_until("-->", "comment")
        if "--" in body:
            raise scanner.error("'--' is not allowed inside a comment")

    def _skip_pi(self) -> None:
        scanner = self._scanner
        start = scanner.pos
        scanner.expect("<?")
        target = scanner.read_name()
        if target.lower() == "xml":
            raise scanner.error(
                "processing instruction may not be named 'xml'", start)
        if not scanner.skip_whitespace() and not scanner.startswith("?>"):
            raise scanner.error(
                "expected whitespace or '?>' after the processing "
                f"instruction target {target!r}")
        scanner.read_until("?>", "processing instruction")

    # ------------------------------------------------------------------
    # Elements

    def _parse_element(self) -> XmlElement:
        scanner = self._scanner
        scanner.expect("<")
        name = scanner.read_name()
        raw_attrs, ns_decls = self._parse_attributes()
        self._ns_stack.append(ns_decls)
        try:
            element = XmlElement(
                name=self._resolve(name, is_attribute=False),
                attributes=self._resolve_attributes(raw_attrs),
                namespace_decls=ns_decls,
            )
            scanner.skip_whitespace()
            if scanner.startswith("/>"):
                scanner.pos += 2
                return element
            scanner.expect(">")
            self._parse_content(element)
            end_name = scanner.read_name()
            if end_name != name:
                raise scanner.error(
                    f"end tag </{end_name}> does not match <{name}>")
            scanner.skip_whitespace()
            scanner.expect(">")
            return element
        finally:
            self._ns_stack.pop()

    def _parse_attributes(
            self) -> tuple[dict[str, str], dict[str, str]]:
        """Read the attribute list of a start tag.

        Returns the plain attributes (lexical name -> value) and the
        namespace declarations made on this element (prefix -> URI, with
        ``""`` as the key of the default namespace).
        """
        scanner = self._scanner
        attrs: dict[str, str] = {}
        ns_decls: dict[str, str] = {}
        while True:
            skipped = scanner.skip_whitespace()
            if scanner.eof():
                raise scanner.error("unterminated start tag")
            ch = scanner.peek()
            if ch in (">", "/"):
                return attrs, ns_decls
            if not skipped:
                raise scanner.error("whitespace required before attribute")
            name = scanner.read_name()
            scanner.skip_whitespace()
            scanner.expect("=")
            scanner.skip_whitespace()
            value = self._parse_attribute_value()
            if name == "xmlns":
                ns_decls[""] = value
            elif name.startswith("xmlns:"):
                prefix = name[len("xmlns:"):]
                if not prefix:
                    raise scanner.error("empty namespace prefix")
                if not value:
                    raise scanner.error(
                        f"prefix {prefix!r} may not be bound to the empty URI")
                ns_decls[prefix] = value
            else:
                if name in attrs:
                    raise scanner.error(f"duplicate attribute {name!r}")
                attrs[name] = value

    def _parse_attribute_value(self) -> str:
        scanner = self._scanner
        quote = scanner.peek()
        if quote not in ("'", '"'):
            raise scanner.error("attribute value must be quoted")
        scanner.pos += 1
        run = _ATTRIBUTE_RUN[quote]
        parts: list[str] = []
        while True:
            match = run.match(scanner.text, scanner.pos)
            # Attribute-value normalization: whitespace becomes space.
            parts.append(replace_whitespace(match.group()))
            scanner.pos = match.end()
            if scanner.eof():
                raise scanner.error("unterminated attribute value")
            ch = scanner.text[scanner.pos]
            if ch == quote:
                scanner.pos += 1
                return "".join(parts)
            if ch == "<":
                raise scanner.error("'<' is not allowed in attribute values")
            parts.append(self._parse_reference())

    def _parse_content(self, element: XmlElement) -> None:
        scanner = self._scanner
        text = scanner.text
        text_parts: list[str] = []

        def flush_text() -> None:
            if text_parts:
                element.append(XmlText("".join(text_parts)))
                text_parts.clear()

        while True:
            match = _CHAR_DATA.match(text, scanner.pos)
            if match is not None:
                run = match.group()
                if "]]>" in run:
                    raise scanner.error("']]>' is not allowed in content",
                                        scanner.pos + run.index("]]>"))
                text_parts.append(run)
                scanner.pos = match.end()
            if scanner.eof():
                raise scanner.error(
                    f"unterminated element <{element.name.lexical}>")
            if text[scanner.pos] == "&":
                text_parts.append(self._parse_reference())
            elif scanner.startswith("</"):
                flush_text()
                scanner.pos += 2
                return
            elif scanner.startswith("<!--"):
                self._skip_comment()
            elif scanner.startswith("<![CDATA["):
                scanner.pos += len("<![CDATA[")
                text_parts.append(scanner.read_until("]]>", "CDATA section"))
            elif scanner.startswith("<?"):
                self._skip_pi()
            else:
                flush_text()
                element.append(self._parse_element())

    # ------------------------------------------------------------------
    # References and namespaces

    def _parse_reference(self) -> str:
        scanner = self._scanner
        start = scanner.pos
        scanner.expect("&")
        if scanner.startswith("#"):
            scanner.pos += 1
            if scanner.startswith("x") or scanner.startswith("X"):
                scanner.pos += 1
                digits = scanner.read_until(";", "character reference")
                base = 16
            else:
                digits = scanner.read_until(";", "character reference")
                base = 10
            try:
                code = int(digits, base)
                ch = chr(code)
            except (ValueError, OverflowError):
                raise scanner.error(
                    f"bad character reference &#{digits};", start) from None
            if not is_xml_char(ch):
                raise scanner.error(
                    f"character reference to illegal character U+{code:04X}",
                    start)
            return ch
        name = scanner.read_name()
        scanner.expect(";")
        try:
            return _PREDEFINED_ENTITIES[name]
        except KeyError:
            if name in self._declared_entities:
                raise scanner.error(
                    f"reference to entity &{name}; declared in the "
                    "DOCTYPE's internal subset: internal-subset entities "
                    "are not expanded", start) from None
            raise scanner.error(
                f"reference to undefined entity &{name};", start) from None

    def _lookup_namespace(self, prefix: str) -> str | None:
        for bindings in reversed(self._ns_stack):
            if prefix in bindings:
                return bindings[prefix]
        return None

    def _resolve(self, lexical: str, is_attribute: bool) -> QName:
        prefix, local = split_prefixed(lexical)
        if prefix:
            uri = self._lookup_namespace(prefix)
            if uri is None:
                raise self._scanner.error(f"undeclared prefix {prefix!r}")
            return QName(uri, local, prefix)
        if is_attribute:
            # Unprefixed attributes are in no namespace.
            return QName("", local)
        uri = self._lookup_namespace("") or ""
        return QName(uri, local)

    def _resolve_attributes(
            self, raw: dict[str, str]) -> dict[QName, str]:
        resolved: dict[QName, str] = {}
        for lexical, value in raw.items():
            qname = self._resolve(lexical, is_attribute=True)
            if qname in resolved:
                raise self._scanner.error(
                    f"duplicate attribute {qname.clark!r} after "
                    "namespace resolution")
            resolved[qname] = value
        return resolved


def parse_document(text: str, base_uri: str | None = None) -> XmlDocument:
    """Parse *text* into an :class:`XmlDocument`.

    This is the module-level convenience entry point; see
    :class:`XmlParser` for the feature list.
    """
    return XmlParser(text, base_uri=base_uri).parse()


def parse_element(text: str) -> XmlElement:
    """Parse *text* and return just the root element."""
    return parse_document(text).root
