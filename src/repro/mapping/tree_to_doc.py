"""The mapping ``g`` of Section 8: serialize an S-tree to an S-document.

``g`` is purely structural: element nodes become elements, attribute
nodes become attributes, text nodes become character data.  Namespace
declarations are synthesized minimally (a default declaration at the
root when the tree's names carry a namespace URI).

``g`` reads the document exclusively through the ten §5 accessors, so
it is stated over the :class:`~repro.xdm.store.NodeStore` protocol
(:func:`store_to_document`) and runs unchanged over the state-algebra
tree and the Sedna storage; :func:`tree_to_document` is the tree
specialization kept for the historical API.
"""

from __future__ import annotations

from repro.errors import ModelError
from repro.xmlio.nodes import XmlDocument, XmlElement, XmlText
from repro.xmlio.qname import XSI_NAMESPACE, QName
from repro.xmlio.serializer import serialize_document
from repro.xdm.node import DocumentNode, ElementNode
from repro.xdm.store import NodeStore, Ref, as_node_store

_XSI_NIL = QName(XSI_NAMESPACE, "nil", "xsi")


def store_to_document(store: NodeStore, ref: Ref = None) -> XmlDocument:
    """The paper's ``g`` over any accessor-protocol model: serialize
    the document (or element subtree) at *ref* to a raw document.

    A nilled element gets an explicit ``xsi:nil="true"`` attribute
    (needed for the round-trip theorem, since nilled-ness is otherwise
    invisible in the serialization).
    """
    if ref is None:
        ref = store.root()
    kind = store.node_kind(ref)
    if kind == "document":
        root_ref = store.document_element(ref)
        base_uri = store.base_uri(ref)
    elif kind == "element":
        root_ref = ref
        base_uri = None
    else:
        raise ModelError("g expects a document or element node")
    xml_root = _convert_element(store, root_ref, default_uri="")
    _declare_namespaces(store, root_ref, xml_root)
    return XmlDocument(xml_root, base_uri=base_uri)


def tree_to_document(node: "DocumentNode | ElementNode") -> XmlDocument:
    """``g`` on the formal tree (the historical Node-typed API)."""
    return store_to_document(as_node_store(node), node)


def serialize_tree(node: "DocumentNode | ElementNode",
                   indent: str | None = None) -> str:
    """``g`` composed with the textual serializer."""
    return serialize_document(tree_to_document(node), indent=indent)


def serialize_store(store: NodeStore, ref: Ref = None,
                    indent: str | None = None) -> str:
    """``g`` over any store, composed with the textual serializer."""
    return serialize_document(store_to_document(store, ref),
                              indent=indent)


def _element_name(store: NodeStore, ref: Ref) -> QName:
    name = store.node_name(ref)
    if name is None:  # pragma: no cover - elements always carry names
        raise ModelError(f"element reference {ref!r} has no name")
    return name


def _convert_element(store: NodeStore, ref: Ref,
                     default_uri: str) -> XmlElement:
    name = _element_name(store, ref)
    xml_element = XmlElement(name)
    # An unprefixed name in a namespace needs the default declaration
    # wherever the in-scope default changes (XQuery-constructed trees
    # mix namespaces freely).
    if not name.prefix and name.uri != default_uri:
        xml_element.namespace_decls[""] = name.uri
        default_uri = name.uri
    for attribute in store.attributes(ref):
        xml_element.attributes[_element_name(store, attribute)] = \
            store.string_value(attribute)
    if store.nilled(ref):
        xml_element.attributes[_XSI_NIL] = "true"
    for child in store.children(ref):
        xml_element.append(_convert_child(store, child, default_uri))
    return xml_element


def _convert_child(store: NodeStore, child: Ref, default_uri: str):
    kind = store.node_kind(child)
    if kind == "text":
        return XmlText(store.string_value(child))
    if kind == "element":
        return _convert_element(store, child, default_uri)
    raise ModelError(f"unexpected child node kind {kind!r}")


def _declare_namespaces(store: NodeStore, root: Ref,
                        xml_root: XmlElement) -> None:
    """Synthesize the namespace declarations the serialization needs."""
    uris: dict[str, str] = {}

    def visit(ref: Ref) -> None:
        name = _element_name(store, ref)
        if name.uri:
            uris.setdefault(name.uri, name.prefix)
        for attribute in store.attributes(ref):
            attr_name = _element_name(store, attribute)
            if attr_name.uri:
                uris.setdefault(attr_name.uri, attr_name.prefix or "ns")
        if store.nilled(ref):
            uris.setdefault(XSI_NAMESPACE, "xsi")
        for child in store.children(ref):
            if store.node_kind(child) == "element":
                visit(child)

    visit(root)
    used_prefixes: set[str] = set()
    counter = 0
    for uri, prefix in uris.items():
        if not prefix:
            continue  # unprefixed names declare their default locally
        if not prefix or prefix in used_prefixes:
            counter += 1
            prefix = f"ns{counter}"
        used_prefixes.add(prefix)
        xml_root.namespace_decls[prefix] = uri
