"""Evaluation of XQuery-lite over the formal data model.

Values are flat sequences of items: nodes, :class:`AtomicValue`
wrappers, or plain Python scalars from literals.  The semantics is the
"simple semantics of a data manipulation language" the paper's
conclusion sketches, built directly on the accessors:

* paths delegate to :mod:`repro.query`;
* atomization uses ``typed-value``;
* general comparisons are existential over atomized operands, with
  untyped values compared numerically against numbers and as strings
  otherwise (a pragmatic subset of the XPath 2.0 rules);
* FLWOR iterates for-bindings in document order, filters with
  ``where``, sorts with ``order by`` and concatenates ``return`` results;
* element constructors build *new* nodes in a fresh state algebra,
  deep-copying any node content (XQuery's copy semantics).

The evaluator reads the context document exclusively through the
:class:`~repro.xdm.store.NodeStore` protocol, so it runs unchanged
over the state-algebra tree and the Sedna storage: pass a tree
``Node`` (the historical API) or any ``NodeStore``.  Result sequences
then contain the store's own references — tree nodes in one case,
storage descriptors in the other — plus tree nodes for constructed
content, and the evaluator dispatches per item on the owning store.
"""

from __future__ import annotations

from decimal import Decimal, InvalidOperation
from typing import Iterator, Optional

from repro import obs
from repro.errors import QueryError
from repro.xmlio.qname import QName
from repro.xdm.node import ElementNode, Node
from repro.xdm.store import TREE_STORE, NodeStore, Ref, as_node_store
from repro.xsdtypes.base import AtomicValue
from repro.algebra.state import StateAlgebra
from repro.query.engine import evaluate_store
from repro.xquery.ast import (
    BooleanExpr,
    Comparison,
    Constructor,
    Expression,
    Flwor,
    ForClause,
    FunctionCall,
    LetClause,
    Literal,
    PathExpr,
    SequenceExpr,
    VarPath,
    VarRef,
)
from repro.xquery.parser import parse_query

Item = object  # node reference | AtomicValue | str | int | Decimal
Bindings = dict[str, list[Item]]


class XQueryEvaluator:
    """Evaluates queries against one context document — a tree node or
    any :class:`NodeStore`."""

    def __init__(self, document: "Node | NodeStore") -> None:
        self._store = as_node_store(document)
        self._algebra = StateAlgebra()  # for constructed nodes

    def evaluate(self, query: "str | Expression") -> list[Item]:
        expression = (parse_query(query) if isinstance(query, str)
                      else query)
        return self._eval(expression, {})

    def evaluate_values(self, query: "str | Expression") -> list[str]:
        """Like :meth:`evaluate` but stringifies every result item."""
        return [self._string_of(item) for item in self.evaluate(query)]

    # ------------------------------------------------------------------

    def _store_of(self, item: Item) -> Optional[NodeStore]:
        """The store owning *item*, or None for atomic items.

        Constructed and tree nodes belong to the tree interpretation;
        anything the context store recognises (e.g. a storage
        descriptor) belongs to the context store.
        """
        if isinstance(item, Node):
            return TREE_STORE
        if self._store.owns_ref(item):
            return self._store
        return None

    def _eval(self, expression: Expression,
              bindings: Bindings) -> list[Item]:
        if isinstance(expression, PathExpr):
            return list(evaluate_store(self._store, expression.path))
        if isinstance(expression, VarRef):
            return self._lookup(expression.name, bindings)
        if isinstance(expression, VarPath):
            out: list[Item] = []
            for item in self._lookup(expression.name, bindings):
                store = self._store_of(item)
                if store is None:
                    raise QueryError(
                        f"${expression.name} holds a non-node; cannot "
                        "apply a path to it")
                out.extend(evaluate_store(store, expression.path, item))
            return out
        if isinstance(expression, Literal):
            return [expression.value]
        if isinstance(expression, SequenceExpr):
            out = []
            for part in expression.items:
                out.extend(self._eval(part, bindings))
            return out
        if isinstance(expression, Comparison):
            return [self._compare(expression, bindings)]
        if isinstance(expression, BooleanExpr):
            left = self._boolean(self._eval(expression.left, bindings))
            if expression.operator == "and":
                if not left:
                    return [False]
                return [self._boolean(
                    self._eval(expression.right, bindings))]
            if left:
                return [True]
            return [self._boolean(self._eval(expression.right, bindings))]
        if isinstance(expression, FunctionCall):
            return self._call(expression, bindings)
        if isinstance(expression, Constructor):
            return [self._construct(expression, bindings)]
        if isinstance(expression, Flwor):
            return self._flwor(expression, bindings)
        raise QueryError(f"cannot evaluate {expression!r}")

    @staticmethod
    def _lookup(name: str, bindings: Bindings) -> list[Item]:
        try:
            return bindings[name]
        except KeyError:
            raise QueryError(f"unbound variable ${name}") from None

    # -- FLWOR -----------------------------------------------------------

    def _flwor(self, flwor: Flwor, bindings: Bindings) -> list[Item]:
        """Each clause runs under its own span (a disabled tracer's
        span is a shared null context), over the tuple stream
        materialized per phase."""
        tracer = obs.TRACER
        with tracer.span("xquery.flwor"):
            with tracer.span("xquery.flwor.bind"):
                materialized = list(
                    self._bind(flwor.clauses, 0, dict(bindings)))
            if flwor.where is not None:
                with tracer.span("xquery.flwor.where",
                                 tuples=len(materialized)):
                    materialized = [
                        env for env in materialized
                        if self._boolean(self._eval(flwor.where, env))]
            if flwor.order is not None:
                spec = flwor.order

                def key(env: Bindings):
                    return self._order_key(self._eval(spec.key, env))

                with tracer.span("xquery.flwor.order",
                                 tuples=len(materialized)):
                    materialized.sort(key=key, reverse=spec.descending)
            out: list[Item] = []
            with tracer.span("xquery.flwor.return",
                             tuples=len(materialized)):
                for env in materialized:
                    out.extend(self._eval(flwor.body, env))
        obs.REGISTRY.counter("xquery.flwor.evaluations").inc()
        obs.REGISTRY.counter("xquery.flwor.tuples").inc(len(materialized))
        return out

    def _bind(self, clauses, index: int,
              env: Bindings) -> Iterator[Bindings]:
        if index == len(clauses):
            yield dict(env)
            return
        clause = clauses[index]
        if isinstance(clause, LetClause):
            env[clause.variable] = self._eval(clause.value, env)
            yield from self._bind(clauses, index + 1, env)
            del env[clause.variable]
            return
        assert isinstance(clause, ForClause)
        for item in self._eval(clause.source, env):
            env[clause.variable] = [item]
            yield from self._bind(clauses, index + 1, env)
        env.pop(clause.variable, None)

    # -- comparisons ----------------------------------------------------------

    def _compare(self, comparison: Comparison,
                 bindings: Bindings) -> bool:
        left_items = self._atomize(self._eval(comparison.left, bindings))
        right_items = self._atomize(self._eval(comparison.right,
                                               bindings))
        op = comparison.operator
        for left in left_items:
            for right in right_items:
                if _value_compare(left, right, op):
                    return True
        return False

    def _boolean(self, items: list[Item]) -> bool:
        """Effective boolean value: empty=false; single boolean as-is;
        a sequence starting with a node is true; else truthiness of
        the single atomic item."""
        if not items:
            return False
        first = items[0]
        if self._store_of(first) is not None:
            return True
        if len(items) > 1:
            raise QueryError(
                "effective boolean value of a multi-item atomic "
                "sequence is undefined")
        if isinstance(first, bool):
            return first
        if isinstance(first, AtomicValue):
            return bool(first.value)
        return bool(first)

    # -- value helpers over the owning store ---------------------------------

    def _atomize(self, items: list[Item]) -> list[object]:
        out: list[object] = []
        for item in items:
            store = self._store_of(item)
            if store is not None:
                out.extend(atomic.value
                           for atomic in store.typed_value(item))
            elif isinstance(item, AtomicValue):
                out.append(item.value)
            else:
                out.append(item)
        return out

    def _string_of(self, item: Item) -> str:
        store = self._store_of(item)
        if store is not None:
            return store.string_value(item)
        return _atomic_string(item)

    def _order_key(self, items: list[Item]):
        values = self._atomize(items)
        if not values:
            return (0, "")
        value = values[0]
        number = _as_number(value)
        if number is not None and not isinstance(value, str):
            return (1, number)
        return (2, _atomic_string(value))  # type: ignore[arg-type]

    # -- functions -----------------------------------------------------------

    def _call(self, call: FunctionCall, bindings: Bindings) -> list[Item]:
        arguments = [self._eval(arg, bindings) for arg in call.arguments]

        def single() -> list[Item]:
            if len(arguments) != 1:
                raise QueryError(
                    f"{call.name}() expects exactly one argument")
            return arguments[0]

        if call.name == "count":
            return [len(single())]
        if call.name == "exists":
            return [len(single()) > 0]
        if call.name == "empty":
            return [len(single()) == 0]
        if call.name == "not":
            return [not self._boolean(single())]
        if call.name == "string":
            items = single()
            if not items:
                return [""]
            return [self._string_of(items[0])]
        if call.name == "data":
            return list(self._atomize(single()))
        if call.name == "distinct-values":
            seen: list[object] = []
            out: list[Item] = []
            for value in self._atomize(single()):
                if not any(value == other for other in seen):
                    seen.append(value)
                    out.append(value)
            return out
        if call.name == "string-join":
            if len(arguments) not in (1, 2):
                raise QueryError("string-join() takes 1 or 2 arguments")
            separator = ""
            if len(arguments) == 2:
                if len(arguments[1]) != 1:
                    raise QueryError("string-join() takes one separator "
                                     f"item, not {len(arguments[1])}")
                separator = self._string_of(arguments[1][0])
            return [separator.join(self._string_of(item)
                                   for item in arguments[0])]
        raise QueryError(f"unknown function {call.name}()")

    # -- constructors ---------------------------------------------------------

    def _construct(self, constructor: Constructor,
                   bindings: Bindings) -> ElementNode:
        element = self._algebra.create_element(
            QName("", constructor.name))
        for child_expr in constructor.children:
            for item in self._eval(child_expr, bindings):
                self._append_content(element, item)
        return element

    def _append_content(self, element: ElementNode, item: Item) -> None:
        algebra = self._algebra
        store = self._store_of(item)
        if store is None:
            algebra.append_child(
                element, algebra.create_text(self._string_of(item)))
            return
        kind = store.node_kind(item)
        if kind == "element":
            algebra.append_child(element, self._copy_element(store, item))
        elif kind == "text":
            algebra.append_child(
                element, algebra.create_text(store.string_value(item)))
        elif kind == "attribute":
            attribute = algebra.create_attribute(
                store.node_name(item), store.string_value(item))
            algebra.attach_attribute(element, attribute)
        else:  # a document: its element content is copied
            algebra.append_child(
                element,
                self._copy_element(store, store.document_element(item)))

    def _copy_element(self, store: NodeStore, source: Ref) -> ElementNode:
        """Deep copy into the evaluator's algebra (XQuery node copy)."""
        algebra = self._algebra
        element = algebra.create_element(store.node_name(source))
        for attribute in store.attributes(source):
            copy = algebra.create_attribute(
                store.node_name(attribute), store.string_value(attribute))
            algebra.attach_attribute(element, copy)
        for child in store.children(source):
            if store.node_kind(child) == "element":
                algebra.append_child(element,
                                     self._copy_element(store, child))
            else:
                algebra.append_child(
                    element,
                    algebra.create_text(store.string_value(child)))
        return element


# ----------------------------------------------------------------------
# Value helpers


def _atomic_string(item: Item) -> str:
    if isinstance(item, Node):
        return item.string_value()
    if isinstance(item, AtomicValue):
        return item.type.canonical(item.value)
    if isinstance(item, bool):
        return "true" if item else "false"
    return str(item)


def _as_number(value: object) -> "Decimal | None":
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, Decimal)):
        return Decimal(value)
    if isinstance(value, float):
        return Decimal(str(value))
    if isinstance(value, str):
        try:
            return Decimal(value.strip())
        except InvalidOperation:
            return None
    return None


def _value_compare(left: object, right: object, op: str) -> bool:
    # Numeric comparison when both sides are (convertible to) numbers
    # and at least one side is genuinely numeric.
    if isinstance(left, (int, Decimal, float)) or \
            isinstance(right, (int, Decimal, float)):
        left_number = _as_number(left)
        right_number = _as_number(right)
        if left_number is not None and right_number is not None:
            return _apply(op, left_number, right_number)
        if op == "=":
            return False
        if op == "!=":
            return True
    left_text = left if isinstance(left, str) else _atomic_string(left)
    right_text = right if isinstance(right, str) else _atomic_string(right)
    return _apply(op, left_text, right_text)


def _apply(op: str, left, right) -> bool:
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right


def execute(document: "Node | NodeStore", query: str) -> list[Item]:
    """Parse and evaluate *query* against *document* (a tree node or
    any ``NodeStore``)."""
    return XQueryEvaluator(document).evaluate(query)


def execute_values(document: "Node | NodeStore",
                   query: str) -> list[str]:
    """Like :func:`execute` but stringifies every result item."""
    return XQueryEvaluator(document).evaluate_values(query)
