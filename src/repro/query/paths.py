"""A small path language: an XPath subset, meaning what XPath means.

Grammar (absolute paths only)::

    path      ::= ("/" step | "//" step)+
    step      ::= node-test predicate*
    node-test ::= name | "*" | "@" name | "@*" | "text()"
    predicate ::= "[" integer "]" | "[last()]"
                | "[@" name ("=" string)? "]"
                | "[" name ("=" string)? "]"
    name      ::= NCName (XML Namespaces; no prefixes)
    integer   ::= [0-9]+
    string    ::= "'" [^']* "'" | '"' [^"]* '"'

Anything else is refused with a :class:`~repro.errors.QueryError`
naming the offending token — never read as a name no node carries.

``/library/book/title`` selects title elements along child steps,
``//author`` selects all author elements, ``/library/book/@id``
selects attribute nodes, ``text()`` selects text children, and
predicates filter by position (``book[2]``), by attribute
(``book[@lang='en']``) or by child value (``book[title='Illusions']``).

``a//x`` is ``a/descendant-or-self::node()/child::x``: the nodes below
``a`` that pass the test, never ``a`` itself (``a//@y`` includes the
attributes of ``a``).  A position counts the children of one parent
that passed the test and the predicates before it, on ``//`` as on
``/``: ``//book[1]`` is the first book child of every parent.  On the
fragment it shares with ``xml.etree.ElementTree``'s ElementPath the
two select the same elements (``tests/test_elementpath.py``).

A path's *shape* is the path with its literals left open — the quoted
values of its value predicates and the ``n`` of its ``[n]`` positions:
``/library/book[3]/title`` and ``/library/book[7]/title`` are one
shape.  :func:`lift_path` reads the shape key and the literals off a
request string without parsing it, :func:`literals_of` reads them off
a parsed :class:`Path`, and :func:`with_literals` puts new ones into
a parsed path of the same shape — what the planner's shape table
(:mod:`repro.query.planner`) uses instead of a parse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from repro.errors import QueryError
from repro.xmlio.chars import is_ncname


def _literal(value: str) -> str:
    """*value* as the grammar's ``string``: between ``'`` unless it
    holds one, then between ``"`` (a literal holds at most the other
    kind; there is no escape)."""
    return f'"{value}"' if "'" in value else f"'{value}'"


@dataclass(frozen=True)
class PositionPredicate:
    """``[n]`` (1-based) or ``[last()]`` (index is None)."""

    index: int | None

    def __repr__(self) -> str:
        return f"[{self.index}]" if self.index is not None else "[last()]"


@dataclass(frozen=True)
class AttributePredicate:
    """``[@name]`` (existence) or ``[@name='value']``."""

    name: str
    value: str | None = None

    def __repr__(self) -> str:
        if self.value is None:
            return f"[@{self.name}]"
        return f"[@{self.name}={_literal(self.value)}]"


@dataclass(frozen=True)
class ChildPredicate:
    """``[name]`` (existence) or ``[name='value']`` on string value."""

    name: str
    value: str | None = None

    def __repr__(self) -> str:
        if self.value is None:
            return f"[{self.name}]"
        return f"[{self.name}={_literal(self.value)}]"


Predicate = Union[PositionPredicate, AttributePredicate, ChildPredicate]


@dataclass(frozen=True)
class Step:
    """One location step of a parsed path."""

    axis: str        # "child", "descendant-or-self", "attribute"
    kind: str        # "element", "attribute", "text"
    name: str | None  # None = wildcard
    predicates: tuple[Predicate, ...] = ()

    def matches_name(self, local: str | None) -> bool:
        return self.name is None or self.name == local

    def __repr__(self) -> str:
        slash = "//" if self.axis == "descendant-or-self" else "/"
        if self.kind == "text":
            body = "text()"
        elif self.kind == "attribute":
            body = f"@{self.name or '*'}"
        else:
            body = self.name or "*"
        suffix = "".join(repr(p) for p in self.predicates)
        return f"{slash}{body}{suffix}"


@dataclass(frozen=True)
class Path:
    """A parsed absolute path."""

    steps: tuple[Step, ...]

    def __post_init__(self) -> None:
        # Paths key the plan cache.  The generated ``__hash__`` walks
        # every step and predicate on every lookup; this walks them
        # once, here, so each Step is hashed once too.
        object.__setattr__(self, "_hash", hash(self.steps))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "".join(repr(step) for step in self.steps)


def parse_path(text: str) -> Path:
    """Parse the textual path into :class:`Path`."""
    if not text.startswith("/"):
        raise QueryError(f"only absolute paths are supported: {text!r}")
    steps: list[Step] = []
    position = 0
    length = len(text)
    while position < length:
        if text.startswith("//", position):
            axis = "descendant-or-self"
            position += 2
        elif text.startswith("/", position):
            axis = "child"
            position += 1
        else:
            raise QueryError(f"expected '/' at {position} in {text!r}")
        end = position
        while end < length and text[end] != "/":
            end = _predicate_end(text, end) if text[end] == "[" else end + 1
        token = text[position:end]
        position = end
        if not token:
            raise QueryError(f"empty step in {text!r}")
        steps.append(_parse_step(axis, token))
    return Path(tuple(steps))


def _predicate_end(text: str, start: int) -> int:
    """The index just past the ``]`` closing the predicate opened at
    *start*.  Brackets and slashes inside a quoted literal are part of
    the literal, not syntax."""
    quote = ""
    for position in range(start + 1, len(text)):
        char = text[position]
        if quote:
            if char == quote:
                quote = ""
        elif char in "'\"":
            quote = char
        elif char == "]":
            return position + 1
    raise QueryError(f"malformed predicate in {text[start:]!r}")


def _split_predicates(token: str) -> tuple[str, tuple["Predicate", ...]]:
    head = token.partition("[")[0]
    predicates: list[Predicate] = []
    position = len(head)
    while position < len(token):
        if token[position] != "[":
            raise QueryError(f"malformed predicate in {token!r}")
        end = _predicate_end(token, position)
        predicates.append(_parse_predicate(token[position + 1:end - 1],
                                           token))
        position = end
    return head, tuple(predicates)


def _parse_predicate(body: str, token: str) -> "Predicate":
    body = body.strip()
    if not body:
        raise QueryError(f"empty predicate in {token!r}")
    if body == "last()":
        return PositionPredicate(None)
    digits = body.lstrip("-")
    if digits.isdigit():
        # The grammar's integer is ASCII digits; int() would also read
        # the digits of other scripts ('１').
        if not (digits.isascii() and digits.isdecimal()):
            raise QueryError(
                f"a position is ASCII digits: [{body}] in {token!r}")
        if digits != body or int(body) < 1:
            raise QueryError(f"positions are 1-based: [{body}]")
        return PositionPredicate(int(body))
    name, equals, literal = body.partition("=")
    value = _parse_string_literal(literal.strip(), token) \
        if equals else None
    name = name.strip()
    if name.startswith("@"):
        return AttributePredicate(_name(name[1:], token), value)
    return ChildPredicate(_name(name, token), value)


def _parse_string_literal(text: str, token: str) -> str:
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        if text[0] in text[1:-1]:
            raise QueryError(
                f"a literal cannot hold its own quote: {text} in "
                f"{token!r}")
        return text[1:-1]
    raise QueryError(f"predicate value must be quoted in {token!r}")


def _name(name: str, token: str) -> str:
    """*name*, if the grammar's ``name`` derives it (an NCName)."""
    if not is_ncname(name):
        raise QueryError(f"{name!r} is not a name, in {token!r}")
    return name


def _parse_step(axis: str, token: str) -> Step:
    test, predicates = _split_predicates(token)
    if test == "text()":
        return Step(axis, "text", None, predicates)
    kind = "element"
    if test.startswith("@"):
        kind, test = "attribute", test[1:]
    if test == "*":
        return Step(axis, kind, None, predicates)
    return Step(axis, kind, _name(test, token), predicates)


# ----------------------------------------------------------------------
# Shapes: a path with its literals left open.

#: One literal of a request string: a quoted value between ``=`` and
#: the ``]`` closing its predicate (group 1 or 2), or a position
#: (group 3).  ``\s`` is what ``str.strip`` strips, as in the parser.
_LITERAL = re.compile(
    r"""=\s*(?:'([^']*)'|"([^"]*)")\s*\]|\[\s*([0-9]+)\s*\]""")


def lift_path(text: str) -> "tuple[str, tuple] | None":
    """The shape key of *text* and its literals, left to right — each
    value a ``str``, each position an ``int`` — or None for a text this
    does not read as a shape (a ``NUL`` in it, a position below 1):
    :func:`parse_path` has the last word on those.

    The key is *text* with every literal's span replaced by ``=\\0]``
    or ``[\\0]``, so it keeps everything but the literals (and the
    spaces around them, which the parser strips): two texts with one
    key parse alike, literals apart, whenever the parse of one lines
    up with its lifted literals (:func:`literals_of`).  The key says
    nothing of whether *text* parses; that is the parse's to say.
    """
    if "\0" in text:
        return None
    parts: list[str] = []
    literals: list = []
    end = 0
    for match in _LITERAL.finditer(text):
        parts.append(text[end:match.start()])
        end = match.end()
        position = match.group(3)
        if position is None:
            value = match.group(1)
            literals.append(match.group(2) if value is None else value)
            parts.append("=\0]")
        else:
            number = int(position)
            if number < 1:
                return None
            literals.append(number)
            parts.append("[\0]")
    if not literals:
        return text, ()
    parts.append(text[end:])
    return "".join(parts), tuple(literals)


def _literal_bearing(predicate) -> bool:
    if isinstance(predicate, PositionPredicate):
        return predicate.index is not None
    return predicate.value is not None


def literals_of(path: Path) -> tuple:
    """The literals of *path* in text order, as :func:`lift_path` lifts
    them: every position ``n`` and every predicate value."""
    return tuple(
        predicate.index if isinstance(predicate, PositionPredicate)
        else predicate.value
        for step in path.steps for predicate in step.predicates
        if _literal_bearing(predicate))


def with_literals(path: Path, literals: tuple) -> Path:
    """*path* with its literals (:func:`literals_of`) replaced, in
    order, by *literals* — the path a text of the same shape parses
    to."""
    feed = iter(literals)
    steps = []
    for step in path.steps:
        if any(map(_literal_bearing, step.predicates)):
            step = Step(step.axis, step.kind, step.name, tuple(
                (PositionPredicate(next(feed))
                 if isinstance(predicate, PositionPredicate)
                 else type(predicate)(predicate.name, next(feed)))
                if _literal_bearing(predicate) else predicate
                for predicate in step.predicates))
        steps.append(step)
    return Path(tuple(steps))
