"""Character classification for the XML 1.0 grammar.

Only the rules the parser needs are implemented: name characters,
whitespace, and the legal character range for content.  The classification
follows the productions of the XML 1.0 (Fifth Edition) recommendation,
restricted to the Basic Multilingual Plane plus the supplementary planes
reachable from Python strings.

The range tables are the statement; :data:`NAME`, :data:`S` and
:data:`ILLEGAL_CHAR` compile them once, so the parser steps by token.
"""

from __future__ import annotations

import re

#: The four XML whitespace characters (production [3] ``S``).
WHITESPACE = " \t\r\n"
_TO_SPACE = str.maketrans("\t\r\n", "   ")

_NAME_START_RANGES = (
    (ord(":"), ord(":")),
    (ord("A"), ord("Z")),
    (ord("_"), ord("_")),
    (ord("a"), ord("z")),
    (0xC0, 0xD6),
    (0xD8, 0xF6),
    (0xF8, 0x2FF),
    (0x370, 0x37D),
    (0x37F, 0x1FFF),
    (0x200C, 0x200D),
    (0x2070, 0x218F),
    (0x2C00, 0x2FEF),
    (0x3001, 0xD7FF),
    (0xF900, 0xFDCF),
    (0xFDF0, 0xFFFD),
    (0x10000, 0xEFFFF),
)

_NAME_EXTRA_RANGES = (
    (ord("-"), ord("-")),
    (ord("."), ord(".")),
    (ord("0"), ord("9")),
    (0xB7, 0xB7),
    (0x300, 0x36F),
    (0x203F, 0x2040),
)


def _char_class(*tables: tuple[tuple[int, int], ...]) -> str:
    """The ranges of *tables* as the body of a regex ``[...]`` class."""
    return "".join(f"{re.escape(chr(lo))}-{re.escape(chr(hi))}"
                   for table in tables for lo, hi in table)


#: Production [5] ``Name``: a [4] NameStartChar, then [4a] NameChars.
NAME = re.compile(
    f"[{_char_class(_NAME_START_RANGES)}]"
    f"[{_char_class(_NAME_START_RANGES, _NAME_EXTRA_RANGES)}]*")

#: Production [3] ``S``.
S = re.compile(f"[{WHITESPACE}]+")

#: Any character outside production [2] ``Char``.
ILLEGAL_CHAR = re.compile(
    "[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _in_ranges(code: int, ranges: tuple[tuple[int, int], ...]) -> bool:
    for lo, hi in ranges:
        if lo <= code <= hi:
            return True
    return False


def is_whitespace(ch: str) -> bool:
    """Return True for the XML whitespace characters (space, tab, CR, LF)."""
    return ch in WHITESPACE


def is_name_start_char(ch: str) -> bool:
    """Return True if *ch* may start an XML Name (production [4])."""
    return _in_ranges(ord(ch), _NAME_START_RANGES)


def is_name_char(ch: str) -> bool:
    """Return True if *ch* may continue an XML Name (production [4a])."""
    code = ord(ch)
    return (_in_ranges(code, _NAME_START_RANGES)
            or _in_ranges(code, _NAME_EXTRA_RANGES))


def is_xml_char(ch: str) -> bool:
    """Return True if *ch* is a legal XML document character ([2] Char)."""
    code = ord(ch)
    return (code in (0x9, 0xA, 0xD)
            or 0x20 <= code <= 0xD7FF
            or 0xE000 <= code <= 0xFFFD
            or 0x10000 <= code <= 0x10FFFF)


def is_name(text: str) -> bool:
    """Return True if *text* is a non-empty XML Name."""
    return NAME.fullmatch(text) is not None


def is_ncname(text: str) -> bool:
    """Return True if *text* is an NCName (an XML Name without colons)."""
    return is_name(text) and ":" not in text


def collapse_whitespace(text: str) -> str:
    """Apply the XSD ``collapse`` whitespace facet to *text*.

    Leading and trailing whitespace is removed and every internal run of
    whitespace characters is replaced by a single space.
    """
    return " ".join(text.split())


def replace_whitespace(text: str) -> str:
    """Apply the XSD ``replace`` whitespace facet to *text*.

    Every tab, carriage return and line feed becomes a single space.
    """
    return text.translate(_TO_SPACE)
