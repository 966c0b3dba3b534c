"""One walk per tree shape, each with its own stack.

The three shapes are the §7 node order (node, attributes, child
subtrees), the elements-and-texts order, and the descriptive-schema
subtree.  Each is written once, as a loop, and the
storage engine's own walks (load, delete, mixed-content string value)
go through them, so no walk's reach depends on the interpreter's
recursion limit.

Two kinds of check:

* guards, each an AST scan: no function of ``repro.storage``,
  ``repro.query``, ``repro.order`` or ``repro.algebra.tree`` calls
  itself; and every module of the package is reached by imports from
  its entry points (``src/`` holds the product, the tests' oracles
  live under ``tests/``);
* parity: the recursive walks the loops replaced are kept below as
  short oracles, and generated trees — stored, updated, and as their
  tree twin — must give the same nodes in the same order, the same
  string values and the same bytes after a load or a delete.
"""

from __future__ import annotations

import ast
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.algebra.tree import Tree, is_well_formed_tree, pretty
from repro.mapping import untyped_document_to_tree
from repro.order import iter_subtree_elements
from repro.query.planner import _schema_candidates
from repro.query.paths import parse_path
from repro.storage import StorageEngine
from repro.storage.persist import dumps_engine
from repro.xdm.store import TREE_STORE
from repro.xmlio import QName, parse_document
from tests.test_query_plan import _budget

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Where no function may call itself, relative to ``src/repro``.
NO_RECURSION = ("storage", "query", "order", "algebra/tree.py")

#: ``module path: qualified name`` → why it may recurse.  Empty: every
#: walk of these packages keeps its own stack.
RECURSION_ALLOWED: dict[str, str] = {}


def _functions(node, prefix="", in_class=False):
    """``(qualified name, def node, is method)`` for every function
    under *node*, nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}{child.name}.", True)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}{child.name}", child, in_class
            yield from _functions(child, f"{prefix}{child.name}.")
        else:
            yield from _functions(child, prefix, in_class)


def self_recursive(source: str) -> list[str]:
    """Qualified names of the functions in *source* that call
    themselves: a method through ``self.``/``cls.``, any other
    function by its bare name."""
    found = []
    for name, function, is_method in _functions(ast.parse(source)):
        for call in ast.walk(function):
            if not isinstance(call, ast.Call):
                continue
            callee = call.func
            if is_method:
                hit = (isinstance(callee, ast.Attribute)
                       and callee.attr == function.name
                       and isinstance(callee.value, ast.Name)
                       and callee.value.id in ("self", "cls"))
            else:
                hit = (isinstance(callee, ast.Name)
                       and callee.id == function.name)
            if hit:
                found.append(name)
                break
    return found


class TestNoRecursion:
    def test_scan_sees_a_recursive_walk(self):
        source = (
            "class S:\n"
            "    def iter_nodes(self):\n"
            "        def walk(node):\n"
            "            yield node\n"
            "            for child in node.children:\n"
            "                yield from walk(child)\n"
            "        return walk(self.root)\n"
            "    def depth(self, node):\n"
            "        return 1 + max(self.depth(c) for c in node)\n"
            "    def load(self):\n"
            "        return load(self.path)\n")
        # ``S.load`` calls the module's ``load``, not itself.
        assert self_recursive(source) == ["S.iter_nodes.walk", "S.depth"]

    def test_storage_query_order_and_tree_do_not_recurse(self):
        found = []
        for entry in NO_RECURSION:
            root = SRC / entry
            files = [root] if root.is_file() else sorted(root.rglob("*.py"))
            assert files, root
            for path in files:
                module = path.relative_to(SRC).as_posix()
                found += [f"{module}: {name}" for name
                          in self_recursive(path.read_text("utf-8"))]
        assert sorted(set(found) - set(RECURSION_ALLOWED)) == []


#: The modules a user enters the package by.
ENTRY_MODULES = ("repro", "repro.__main__", "repro.cli", "repro.server")

#: Modules no entry point has to reach: the workload generators that
#: ``examples/`` and ``benchmarks/e2e/`` drive the product with.
OFF_SURFACE = "repro.workloads"


def _package_modules() -> dict[str, Path]:
    """``dotted name → file`` for every module under ``src/repro``."""
    modules = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def imported_names(source: str, module: str, is_package: bool) -> set[str]:
    """Every dotted name an ``import`` or ``from … import`` in *source*
    may load, in any scope (imports inside functions too), with each
    name's enclosing packages; relative imports are resolved against
    *module*."""
    names = set()
    package = module.split(".") if is_package else module.split(".")[:-1]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package[:len(package) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return {".".join(name.split(".")[:end]) for name in names
            for end in range(1, name.count(".") + 2)}


def reached_modules(modules: dict[str, Path]) -> set[str]:
    """The modules of *modules* that the entry points import,
    transitively."""
    reached, pending = set(), list(ENTRY_MODULES)
    while pending:
        module = pending.pop()
        if module in reached or module not in modules:
            continue
        reached.add(module)
        path = modules[module]
        pending.extend(imported_names(path.read_text("utf-8"), module,
                                      path.name == "__init__.py"))
    return reached


class TestProductSurface:
    def test_scan_sees_nested_and_relative_imports(self):
        source = (
            "import a.b\n"
            "def f():\n"
            "    from c import d\n"
            "    from . import e\n"
            "    from ..g import h\n")
        assert imported_names(source, "p.q.r", is_package=False) == {
            "a", "a.b", "c", "c.d", "p", "p.q", "p.q.e", "p.g", "p.g.h"}

    def test_every_module_is_reached_from_an_entry_point(self):
        modules = _package_modules()
        unreached = set(modules) - reached_modules(modules)
        assert sorted(name for name in unreached
                      if name != OFF_SURFACE
                      and not name.startswith(OFF_SURFACE + ".")) == []

    def test_no_module_imports_the_tests_or_the_stdlib_xml(self):
        """The package imports no oracle: neither the tests' own nor
        the standard library's XML parsers they compare against."""
        found = [f"{module}: {name}"
                 for module, path in _package_modules().items()
                 for name in imported_names(path.read_text("utf-8"),
                                            module,
                                            path.name == "__init__.py")
                 if name.split(".")[0] in ("tests", "xml")]
        assert found == []


# ----------------------------------------------------------------------
# The replaced recursive walks, as oracles.


def oracle_document_order(attributes, children, node):
    yield node
    yield from attributes(node)
    for child in children(node):
        yield from oracle_document_order(attributes, children, child)


def oracle_elements(node):
    yield node
    for child in node.children():
        yield from oracle_elements(child)


def oracle_schema_subtree(node):
    yield node
    for child in node.children:
        yield from oracle_schema_subtree(child)


def oracle_string_value(engine, descriptor):
    if descriptor.node_type in ("text", "attribute"):
        return descriptor.value or ""
    parts = []
    node = engine.first_child(descriptor)
    while node is not None:
        if node.node_type == "text":
            parts.append(node.value or "")
        elif node.node_type == "element":
            parts.append(oracle_string_value(engine, node))
        node = node.right_sibling
    return "".join(parts)


def oracle_depth(node):
    children = list(node.children())
    if not children:
        return 1
    return 1 + max(oracle_depth(child) for child in children)


def oracle_pretty(node, label, indent=0):
    lines = ["  " * indent + label(node)]
    lines += ["  " * (indent + 1) + label(attribute)
              for attribute in node.attributes()]
    for child in node.children():
        lines += oracle_pretty(child, label, indent + 1)
    return lines


def oracle_load(engine, root, pending, expand):
    """The document element as the bulk loader stored it before the
    loop, then its subtree by the recursive descent."""
    ((label, element),) = pending
    schema_node = engine.schema.get_or_add_child(
        root.schema_node, element.name, "element")
    descriptor = engine._new_descriptor(schema_node, label)
    descriptor.parent = root
    engine._append_to_schema_blocks(descriptor)
    engine._register_child_pointer(root, descriptor)
    oracle_load_children(engine, descriptor, element, expand)


def oracle_load_children(engine, parent, element, expand):
    attributes, children = expand(element)
    labels = engine.numbering.child_labels(
        parent.nid, len(attributes) + len(children))
    cursor = 0
    for name, value in attributes:
        schema_node = engine.schema.get_or_add_child(
            parent.schema_node, name, "attribute")
        descriptor = engine._new_descriptor(schema_node, labels[cursor],
                                            value=value)
        cursor += 1
        descriptor.parent = parent
        engine._append_to_schema_blocks(descriptor)
        engine._register_child_pointer(parent, descriptor)
    previous = None
    for child in children:
        is_text = isinstance(child, str)
        schema_node = engine.schema.get_or_add_child(
            parent.schema_node, None if is_text else child.name,
            "text" if is_text else "element")
        descriptor = engine._new_descriptor(
            schema_node, labels[cursor], value=child if is_text else None)
        cursor += 1
        descriptor.parent = parent
        descriptor.left_sibling = previous
        if previous is not None:
            previous.right_sibling = descriptor
        previous = descriptor
        engine._append_to_schema_blocks(descriptor)
        engine._register_child_pointer(parent, descriptor)
        if not is_text:
            oracle_load_children(engine, descriptor, child, expand)


def oracle_delete_subtree(engine, descriptor):
    removed = 0
    for attribute in list(engine.attributes(descriptor)):
        engine._remove_descriptor(attribute)
        removed += 1
    for child in list(engine.children(descriptor)):
        removed += oracle_delete_subtree(engine, child)
    engine._detach(descriptor)
    engine.delete_count += 1
    obs.REGISTRY.counter("storage.deletes").inc()
    return removed + 1


# ----------------------------------------------------------------------
# Generated trees.

_NAMES = ("a", "b", "c")


@st.composite
def _element(draw, depth=0):
    """A small element over three names, two attribute names and two
    texts (adjacent texts parse into one); up to six levels deep."""
    name = draw(st.sampled_from(_NAMES))
    attributes = "".join(f' {attribute}="{attribute}{depth}"'
                         for attribute in draw(st.sets(
                             st.sampled_from("xy"))))
    parts = []
    if depth < 6:
        for _ in range(draw(st.integers(0, 3))):
            if draw(st.booleans()):
                parts.append(draw(_element(depth + 1)))
            else:
                parts.append(draw(st.sampled_from(("t", "u"))))
    return f"<{name}{attributes}>{''.join(parts)}</{name}>"


#: One update, resolved against the engine as it stands: (kind, which
#: element, which child position, name or text).
_UPDATES = st.lists(st.tuples(
    st.sampled_from(("element", "text", "delete")),
    st.integers(0, 63), st.integers(0, 7),
    st.sampled_from(_NAMES + ("t", "u"))), max_size=6)


def _elements(engine):
    return [descriptor for descriptor in engine.iter_document_order()
            if descriptor.node_type == "element"]


def _update(engine, updates):
    """Leave a layout no bulk load makes: inserts between siblings and
    deletes of whole subtrees (never the document element)."""
    for kind, which, position, payload in updates:
        elements = _elements(engine)
        target = elements[which % len(elements)]
        if kind == "delete":
            if len(elements) > 1:
                engine.delete_subtree(elements[1 + which
                                               % (len(elements) - 1)])
            continue
        index = position % (len(engine.children(target)) + 1)
        if kind == "element":
            engine.insert_child(target, index, name=QName("", payload))
        else:
            engine.insert_child(target, index, text=payload)


def _stored(text, updates=()):
    engine = StorageEngine(block_capacity=4)
    engine.load_document(parse_document(text))
    _update(engine, updates)
    return engine


def _tree(text):
    return untyped_document_to_tree(parse_document(text))


#: Tier-1's budget, or the selected profile's (CI: ``crash-matrix``).
_SETTINGS = settings(max_examples=_budget(40), deadline=None)


class TestNodeOrder:
    @_SETTINGS
    @given(text=_element(), updates=_UPDATES)
    def test_stored(self, text, updates):
        engine = _stored(text, updates)
        for descriptor in engine.iter_document_order():
            assert list(engine.iter_document_order(descriptor)) == list(
                oracle_document_order(engine.attributes, engine.children,
                                      descriptor))

    @_SETTINGS
    @given(text=_element())
    def test_tree_twin(self, text):
        document = _tree(text)
        expected = list(oracle_document_order(
            lambda node: list(node.attributes()),
            lambda node: list(node.children()), document))
        assert list(Tree(document).nodes()) == expected
        assert list(TREE_STORE.iter_document_order(document)) == expected


class TestElementOrder:
    @_SETTINGS
    @given(text=_element())
    def test_forward_reversed_and_descendant_axes(self, text):
        for node in Tree(_tree(text)).nodes():
            assert list(iter_subtree_elements(node)) == list(
                oracle_elements(node))

    @_SETTINGS
    @given(text=_element())
    def test_tree_depth_pretty_and_well_formedness(self, text):
        document = _tree(text)
        for node in iter_subtree_elements(document):
            tree = Tree(node)
            assert tree.depth() == oracle_depth(node)
            assert pretty(tree, repr) == "\n".join(
                oracle_pretty(node, repr))
            assert is_well_formed_tree(tree)


class TestSchemaSubtree:
    @_SETTINGS
    @given(text=_element(), updates=_UPDATES)
    def test_schema_walk_and_row_sums(self, text, updates):
        engine = _stored(text, updates)
        schema = engine.schema
        assert list(schema.iter_nodes()) == list(
            oracle_schema_subtree(schema.root))
        descendant = parse_path("//a").steps[0]
        for schema_node in schema.iter_nodes():
            expected = list(oracle_schema_subtree(schema_node))
            assert list(schema_node.subtree()) == expected
            # ``//`` is descendant-or-self::node()/child::, so the
            # node's own candidates are its subtree without it.
            assert list(_schema_candidates(schema_node,
                                           descendant)) == expected[1:]


class TestEngineWalks:
    @_SETTINGS
    @given(text=_element(), updates=_UPDATES)
    def test_string_value(self, text, updates):
        engine = _stored(text, updates)
        for descriptor in engine.iter_document_order():
            assert engine.string_value(descriptor) == \
                oracle_string_value(engine, descriptor)

    @_SETTINGS
    @given(text=_element())
    def test_string_value_of_the_twins(self, text):
        engine = _stored(text)
        tree_nodes = list(Tree(_tree(text)).nodes())
        stored = list(engine.iter_document_order())
        assert [engine.string_value(d) for d in stored] == [
            node.string_value() for node in tree_nodes]

    @_SETTINGS
    @given(text=_element())
    def test_load_writes_the_same_bytes(self, text):
        engine = _stored(text)
        oracle = StorageEngine(block_capacity=4)
        oracle._load_children = (
            lambda root, pending, expand:
            oracle_load(oracle, root, pending, expand))
        oracle.load_document(parse_document(text))
        assert dumps_engine(engine) == dumps_engine(oracle)

    @_SETTINGS
    @given(text=_element(), updates=_UPDATES, which=st.integers(0, 63))
    def test_delete_leaves_the_same_bytes_and_counts(self, text, updates,
                                                     which):
        engine, oracle = _stored(text, updates), _stored(text, updates)
        elements = _elements(engine)
        if len(elements) < 2:
            return
        pick = 1 + which % (len(elements) - 1)
        deletes = obs.REGISTRY.counter("storage.deletes")
        start = deletes.value
        removed = engine.delete_subtree(elements[pick])
        middle = deletes.value
        expected = oracle_delete_subtree(oracle, _elements(oracle)[pick])
        assert removed == expected
        assert middle - start == deletes.value - middle
        assert engine.delete_count == oracle.delete_count
        engine.check_invariants()
        assert dumps_engine(engine) == dumps_engine(oracle)
