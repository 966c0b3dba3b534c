"""repro — a reproduction of "A Formal Model of XML Schema" (ICDE 2005).

The package implements the paper's algebraic model of XML Schema on top of
the XQuery 1.0 / XPath 2.0 data model, plus the Sedna-style physical
representation it describes:

* :mod:`repro.xmlio` — raw XML parsing/serialization (substrate),
* :mod:`repro.xsdtypes` — the simple type system of Section 4,
* :mod:`repro.schema` — the abstract syntax of Sections 2-3,
* :mod:`repro.xdm` — the node classes and accessors of Section 5,
* :mod:`repro.algebra` — the state algebra and the Section 6.2
  conformance requirements,
* :mod:`repro.order` — document order (Section 7),
* :mod:`repro.mapping` — the mappings ``f``/``g`` and content equality
  of Section 8,
* :mod:`repro.storage` — descriptive schema, blocks, node descriptors
  and the numbering scheme of Section 9,
* :mod:`repro.query` — a small path-query engine over both models,
* :mod:`repro.workloads` — the paper's examples and scalable generators.

The most common entry points are re-exported here.
"""

__version__ = "1.0.0"

from repro.database import DatabaseError, StoredDocument, XmlDatabase
from repro.errors import (
    ConformanceError,
    ReproError,
    SchemaError,
    ValidationError,
    XmlSyntaxError,
)

__all__ = [
    "ConformanceError",
    "DatabaseError",
    "StoredDocument",
    "XmlDatabase",
    "ReproError",
    "SchemaError",
    "ValidationError",
    "XmlSyntaxError",
    "__version__",
]
