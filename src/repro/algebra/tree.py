"""The ``Tree`` data type of Section 6.1 with ``root`` and ``roots``.

The paper defines trees inductively from nodes whose ``children`` /
``attributes`` and ``parent`` accessors agree.  Because those accessors
already live on the nodes, a tree value is determined by its root node;
:class:`Tree` wraps a root and offers the traversals the rest of the
model needs, and :func:`is_well_formed_tree` re-checks the inductive
conditions explicitly.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.errors import AlgebraError
from repro.order.document_order import iter_subtree_elements
from repro.xdm.node import AttributeNode, DocumentNode, ElementNode, Node
from repro.xdm.store import TREE_STORE
from repro.xsdtypes.sequence import Sequence


class Tree:
    """A tree value: a root node plus the subtree it dominates."""

    __slots__ = ("_root",)

    def __init__(self, root: Node) -> None:
        if isinstance(root, AttributeNode):
            raise AlgebraError("an attribute node cannot root a tree")
        self._root = root

    @property
    def root_node(self) -> Node:
        return self._root

    def nodes(self) -> Iterator[Node]:
        """All nodes of the tree in document order (Section 7):
        each element before its attributes, attributes before the
        element's children."""
        return TREE_STORE.iter_document_order(self._root)

    def size(self) -> int:
        return sum(1 for _ in self.nodes())

    def depth(self) -> int:
        """Length of the longest root-to-leaf path (root alone = 1)."""
        level: dict[Node, int] = {}
        for node in iter_subtree_elements(self._root):
            level[node] = level.get(node.parent_or_none(), 0) + 1
        return max(level.values())

    def __iter__(self) -> Iterator[Node]:
        return self.nodes()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return self._root is other._root

    def __hash__(self) -> int:
        return hash(("Tree", self._root))

    def __repr__(self) -> str:
        return f"Tree({self._root!r})"


def root(tree: Tree) -> Node:
    """The paper's ``root : Tree -> Node`` function."""
    return tree.root_node


def roots(trees: "Sequence[Tree] | list[Tree] | tuple[Tree, ...]"
          ) -> Sequence[Node]:
    """The paper's ``roots : Seq(Tree) -> Seq(Node)`` function."""
    return Sequence(tree.root_node for tree in trees)


def subtree(node: Node) -> Tree:
    """The tree rooted at *node*."""
    return Tree(node)


def is_well_formed_tree(tree: Tree) -> bool:
    """Re-check the inductive tree conditions of Section 6.1.

    Every child's ``parent`` accessor must point back at its parent,
    ditto for attributes, and no node may be reachable twice.  Not
    the §7 walk: a node reached twice (a cycle) must stop the check,
    not loop it.
    """
    seen: set[int] = set()
    stack = [tree.root_node]
    while stack:
        node = stack.pop()
        for member in (node, *node.attributes()):
            if member.identifier in seen:
                return False
            seen.add(member.identifier)
            if member is not node and member.parent_or_none() is not node:
                return False
        for child in node.children():
            if child.parent_or_none() is not node:
                return False
            stack.append(child)
    return True


def pretty(tree: Tree, label: "Callable[[Node], str] | None" = None) -> str:
    """An indented rendering of the tree, for debugging and examples."""
    def default_label(node: Node) -> str:
        names = node.node_name()
        name = names.head().lexical if names else ""
        if node.node_kind() == "text":
            return f"text {node.string_value()!r}"
        if node.node_kind() == "attribute":
            return f"@{name}={node.string_value()!r}"
        return f"{node.node_kind()} {name}".rstrip()

    label = label or default_label
    lines: list[str] = []
    indent: dict[Node, int] = {}
    for node in tree.nodes():
        indent[node] = indent.get(node.parent_or_none(), -1) + 1
        lines.append("  " * indent[node] + label(node))
    return "\n".join(lines)


def document_tree(document: DocumentNode) -> Tree:
    """The tree of a complete document (root must be a document node)."""
    if not isinstance(document, DocumentNode):
        raise AlgebraError("document_tree needs a document node")
    return Tree(document)


def element_subtrees(element: ElementNode) -> list[Tree]:
    """The sequence of trees rooted at an element's element children —
    the ``ss`` sequences of Section 6.2 item 5.4.2."""
    return [Tree(child) for child in element.element_children()]
