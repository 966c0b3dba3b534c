"""A tour of the Section 9 physical representation.

Loads the paper's Example 8 library into the simulated Sedna storage
and walks through every §9 structure: the descriptive schema (the
figure of Example 8), the per-schema-node block lists (Example 9), a
node descriptor's fields (Example 10), numbering labels, and an
update that relabels nothing (Proposition 1).

Run:  python examples/sedna_storage_tour.py
"""

from repro.query import StorageQueryEngine
from repro.storage import StorageEngine
from repro.storage.dschema import descriptor_bytes
from repro.xmlio import QName, parse_document
from repro.workloads.fixtures import EXAMPLE_8_DOCUMENT


def main() -> None:
    engine = StorageEngine(block_capacity=4)
    engine.load_document(parse_document(EXAMPLE_8_DOCUMENT))

    # --- Section 9.1: the descriptive schema (Example 8's figure).
    print("descriptive schema:")
    for path, node_type in engine.schema.paths():
        print(f"  {path:40s} {node_type}")
    print(f"{engine.schema.node_count()} schema nodes summarize "
          f"{engine.node_count()} document nodes")

    # --- Section 9.2: blocks hang off schema nodes (Example 9).
    print("\nblocks per schema node:")
    for path, count in engine.blocks_per_schema_node().items():
        print(f"  {path:40s} {count} block(s)")

    # --- Example 10: one node descriptor, field by field.
    library = engine.children(engine.document)[0]
    first_book = engine.children(library)[0]
    print("\nnode descriptor of the first <book>:")
    print(f"  schema node:    {first_book.schema_node.path}")
    print(f"  nid:            {first_book.nid}")
    print(f"  parent:         {first_book.parent.schema_node.step}")
    print(f"  left sibling:   {first_book.left_sibling}")
    print(f"  right sibling:  "
          f"{first_book.right_sibling.schema_node.step}")
    print(f"  next/prev in block: {first_book.next_in_block}/"
          f"{first_book.prev_in_block}")
    print(f"  children-by-schema pointers: "
          f"{len(first_book.children_by_schema)} "
          "(first child per schema child only)")
    print(f"  modelled size:  {descriptor_bytes(first_book)} bytes "
          "(overhead + label + value; child pointers not counted)")

    # --- Section 9.2 claim: every accessor from descriptor + schema.
    print("\naccessors evaluated from storage:")
    print(f"  node-kind:    {engine.node_kind(first_book)}")
    print(f"  node-name:    {engine.node_name(first_book)}")
    print(f"  string-value: {engine.string_value(first_book)[:40]!r}...")

    # --- Section 9.3: structural relations from labels alone.
    title = engine.children(first_book)[0]
    from repro.storage import before, is_ancestor, is_parent
    print("\nlabel relations:")
    print(f"  book << title:        {before(first_book.nid, title.nid)}")
    print(f"  book parent-of title: "
          f"{is_parent(first_book.nid, title.nid)}")
    print(f"  library anc-of title: "
          f"{is_ancestor(library.nid, title.nid)}")

    # --- Proposition 1: insert without relabeling.
    print("\ninserting a book between the two existing ones...")
    new_book = engine.insert_child(library, 1, name=QName("", "book"))
    new_title = engine.insert_child(new_book, 0, name=QName("", "title"))
    engine.insert_child(new_title, 0, text="A Formal Model of XML Schema")
    engine.check_invariants()
    print(f"  relabels performed: {engine.relabel_count}")
    print(f"  block splits:       {engine.split_count}")

    # --- Descriptive-schema-driven queries (the XPath speedup).
    queries = StorageQueryEngine(engine)
    titles = queries.evaluate_schema_driven("//title")
    print("\nall titles (schema-driven scan, document order):")
    for descriptor in titles:
        print(f"  {engine.string_value(descriptor)}")


if __name__ == "__main__":
    main()
