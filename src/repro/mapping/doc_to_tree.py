"""The mapping ``f`` of Section 8: an S-document becomes an S-tree.

``f`` walks the raw parsed document alongside the schema and builds a
typed node tree in a state algebra, enforcing the Section 6.2
requirements as it goes (so the result is an S-tree by construction).
Validation failures raise :class:`~repro.errors.ValidationError` with
the item number of the violated requirement and the document path.

Decisions the paper leaves to its companion report [16], made explicit
here:

* Whitespace-only text between the element children of a non-mixed
  complex type is *insignificant* and dropped (standard XSD practice);
  any other text there is a validation error (item 5.4.2.1/5.4.2.3).
* A simple-typed element always receives exactly one text child, even
  when its value is the empty string — the literal reading of item
  5.1.1.
* All declared attributes are mandatory (the paper elides
  REQUIRED/OPTIONAL); an undeclared attribute is an error.
* ``xsi:nil="true"`` on a nillable element yields a nilled element
  with no children (item 6); on a non-nillable element it is an error.
"""

from __future__ import annotations

from repro.errors import ValidationError
from repro.xmlio.nodes import XmlDocument, XmlElement, XmlText
from repro.xmlio.qname import XSI_NAMESPACE, QName
from repro.xsdtypes.base import SimpleType
from repro.xdm.node import DocumentNode, ElementNode
from repro.algebra.state import StateAlgebra
from repro.schema.ast import DocumentSchema, ElementDeclaration
from repro.schema.compiled import CompiledType

_XSI_NIL = QName(XSI_NAMESPACE, "nil")


class TreeConstructor:
    """Builds S-trees from S-documents for one schema (the function f)."""

    def __init__(self, schema: DocumentSchema) -> None:
        self._schema = schema

    def convert(self, document: XmlDocument,
                algebra: StateAlgebra | None = None) -> DocumentNode:
        """Apply ``f`` to *document*, returning the document node."""
        algebra = algebra or StateAlgebra()
        root_decl = self._schema.root_element
        xml_root = document.root
        if xml_root.name.local != root_decl.name:
            raise ValidationError(
                f"root element is {xml_root.name.local!r}, the schema "
                f"requires {root_decl.name!r} (item 3)")
        doc_node = algebra.create_document(base_uri=document.base_uri)
        element = self._convert_element(
            algebra, xml_root, root_decl, self._schema.type_of(root_decl),
            path=f"/{xml_root.name.local}")
        algebra.append_child(doc_node, element)
        return doc_node

    # ------------------------------------------------------------------

    def _fail(self, item: str, path: str, message: str) -> ValidationError:
        return ValidationError(f"{path}: {message} (item {item})")

    def _convert_element(self, algebra: StateAlgebra, source: XmlElement,
                         declaration: ElementDeclaration,
                         compiled: CompiledType, path: str) -> ElementNode:
        element = algebra.create_element(source.name)
        nil_literal = source.attributes.get(_XSI_NIL)
        nilled = nil_literal in ("true", "1")
        if nilled and not declaration.nillable:
            raise self._fail(
                "6", path, "xsi:nil on a non-nillable element")
        algebra.annotate_element(element, compiled.type_name,
                                 simple_type=compiled.simple_type,
                                 nilled=nilled)
        self._fill_attributes(algebra, element, source,
                              compiled.attributes or {}, path)
        if nilled:
            # Item 6.1 (simple type), 6.2 (simple content), 6.3.
            item = ("6.1" if compiled.attributes is None
                    else "6.2" if compiled.simple_type is not None
                    else "6.3")
            self._require_no_content(source, path, item=item)
        elif compiled.simple_type is not None:
            self._fill_simple_value(algebra, element, source,
                                    compiled.simple_type, path)
        else:
            self._fill_complex_content(algebra, element, source,
                                       compiled, path)
        return element

    # ------------------------------------------------------------------
    # Attributes (item 5.3.1)

    def _fill_attributes(self, algebra: StateAlgebra, element: ElementNode,
                         source: XmlElement,
                         declared: dict[str, CompiledType],
                         path: str) -> None:
        present: dict[str, str] = {}
        for qname, value in source.attributes.items():
            if qname == _XSI_NIL:
                continue
            if qname.uri:
                raise self._fail(
                    "5.3.1", path,
                    f"namespaced attribute {qname.clark} is outside the "
                    "paper's model")
            if qname.local not in declared:
                raise self._fail(
                    "5.3.1", path,
                    f"undeclared attribute {qname.local!r}")
            present[qname.local] = value
        for name, attribute_type in declared.items():
            if name not in present:
                raise self._fail(
                    "5.3.1", path,
                    f"missing attribute {name!r} (all declared attributes "
                    "are mandatory in the paper's model)")
            simple = attribute_type.simple_type
            literal = present[name]
            if not simple.validate(literal):
                raise self._fail(
                    "5.3.1", path,
                    f"attribute {name}={literal!r} is not a valid "
                    f"{simple.type_name}")
            attribute = algebra.create_attribute(QName("", name), literal)
            algebra.annotate_attribute(attribute, attribute_type.type_name,
                                       simple_type=simple)
            algebra.attach_attribute(element, attribute)

    # ------------------------------------------------------------------
    # Content

    def _require_no_content(self, source: XmlElement, path: str,
                            item: str) -> None:
        for child in source.children:
            if isinstance(child, XmlElement):
                raise self._fail(item, path,
                                 "nilled element must have no children")
            if child.text.strip():
                raise self._fail(item, path,
                                 "nilled element must have no content")

    def _fill_simple_value(self, algebra: StateAlgebra,
                           element: ElementNode, source: XmlElement,
                           simple: SimpleType, path: str) -> None:
        """Item 5.1.1: exactly one text child holding the value."""
        if source.element_children():
            raise self._fail(
                "5.1.1", path,
                "simple-typed element must not have element children")
        literal = source.text_content()
        if not simple.validate(literal):
            raise self._fail(
                "5.1.1", path,
                f"value {literal!r} is not a valid {simple.type_name}")
        algebra.append_child(element, algebra.create_text(literal))

    def _fill_complex_content(self, algebra: StateAlgebra,
                              element: ElementNode, source: XmlElement,
                              compiled: CompiledType, path: str) -> None:
        model = compiled.model
        if model is None:
            self._fill_empty_content(algebra, element, source,
                                     compiled.mixed, path)
            return
        child_elements = source.element_children()
        names = [child.name.local for child in child_elements]
        if not model.matches(names):
            raise self._fail("5.4.2.3", path, model.explain(names))

        counters: dict[str, int] = {}
        for child in source.children:
            if isinstance(child, XmlText):
                if not compiled.mixed:
                    if child.text.strip():
                        raise self._fail(
                            "5.4.2.1", path,
                            f"text {child.text.strip()[:30]!r} in "
                            "non-mixed element content")
                    continue  # insignificant whitespace
                if child.text:
                    algebra.append_child(element,
                                         algebra.create_text(child.text))
                continue
            name = child.name.local
            declaration, child_type = compiled.child(name)
            counters[name] = counters.get(name, 0) + 1
            child_path = f"{path}/{name}[{counters[name]}]"
            algebra.append_child(
                element,
                self._convert_element(algebra, child, declaration,
                                      child_type, child_path))

    def _fill_empty_content(self, algebra: StateAlgebra,
                            element: ElementNode, source: XmlElement,
                            mixed: bool, path: str) -> None:
        """Item 5.4.1: empty content — at most one text child if mixed."""
        if source.element_children():
            raise self._fail(
                "5.4.1", path,
                "element children where the type has empty content")
        literal = source.text_content()
        if literal and not mixed:
            if literal.strip():
                raise self._fail(
                    "5.4.1.2", path,
                    "text content where the type forbids it")
            return
        if literal:
            algebra.append_child(element, algebra.create_text(literal))


def document_to_tree(document: XmlDocument, schema: DocumentSchema,
                     algebra: StateAlgebra | None = None) -> DocumentNode:
    """The paper's ``f``: map an S-document to an S-tree."""
    return TreeConstructor(schema).convert(document, algebra)


def untyped_document_to_tree(document: XmlDocument,
                             algebra: StateAlgebra | None = None
                             ) -> DocumentNode:
    """Schema-less variant: every element is ``xs:anyType``, all text
    is preserved verbatim.  Used by the storage layer, which (like
    Sedna's descriptive schema) does not require a document schema."""
    algebra = algebra or StateAlgebra()
    doc_node = algebra.create_document(base_uri=document.base_uri)
    algebra.append_child(doc_node,
                         _untyped_element(algebra, document.root))
    return doc_node


def _untyped_element(algebra: StateAlgebra,
                     source: XmlElement) -> ElementNode:
    element = algebra.create_element(source.name)
    for qname, value in source.attributes.items():
        attribute = algebra.create_attribute(qname, value)
        algebra.attach_attribute(element, attribute)
    for child in source.children:
        if isinstance(child, XmlText):
            algebra.append_child(element, algebra.create_text(child.text))
        else:
            algebra.append_child(element,
                                 _untyped_element(algebra, child))
    return element
