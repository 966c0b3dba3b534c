"""Abstract syntax of XML Schema (Sections 2-3) and its XSD surface form.

The package contains the AST classes mirroring the paper's syntactic
domains, the compiled form every schema reader uses
(:mod:`repro.schema.compiled`), a parser from the XSD subset into the
AST, a writer back to XSD text, and static schema well-formedness
diagnostics.
"""

from repro.schema.ast import (
    NO_ATTRIBUTES,
    AllGroup,
    ONCE,
    UNBOUNDED,
    AttributeDeclarations,
    CombinationFactor,
    ComplexContentType,
    ComplexType,
    DocumentSchema,
    ElementDeclaration,
    GroupDefinition,
    GroupMember,
    InlineSimpleType,
    RepetitionFactor,
    SimpleContentType,
    TypeName,
    TypeRef,
)
from repro.schema.normalize import (
    normalize_group,
    normalize_schema,
    normalize_type,
)
from repro.schema.parser import SchemaParser, parse_schema
from repro.schema.wellformed import SchemaIssue, SchemaLinter, lint_schema
from repro.schema.writer import SchemaWriter, write_schema

__all__ = [
    "AllGroup",
    "AttributeDeclarations",
    "CombinationFactor",
    "ComplexContentType",
    "ComplexType",
    "DocumentSchema",
    "ElementDeclaration",
    "GroupDefinition",
    "GroupMember",
    "InlineSimpleType",
    "NO_ATTRIBUTES",
    "ONCE",
    "RepetitionFactor",
    "SchemaIssue",
    "SchemaLinter",
    "SchemaParser",
    "SchemaWriter",
    "SimpleContentType",
    "TypeName",
    "TypeRef",
    "UNBOUNDED",
    "lint_schema",
    "normalize_group",
    "normalize_schema",
    "normalize_type",
    "parse_schema",
    "write_schema",
]
