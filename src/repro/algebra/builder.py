"""Random generation of schema-conforming document trees.

:class:`InstanceBuilder` walks a document schema and builds an S-tree
in a state algebra, choosing occurrence counts, choice branches, text
values and nil flags pseudo-randomly.  The §6.2 conformance checker is
the oracle: property tests assert that everything the builder produces
conforms, and that ``g``/``f`` round-trip it.
"""

from __future__ import annotations

import random
import string

from repro.errors import ReproError
from repro.xmlio.qname import QName
from repro.xdm.node import DocumentNode, ElementNode
from repro.xsdtypes.base import (
    AtomicType,
    ListType,
    SimpleType,
    UnionType,
)
from repro.xsdtypes.facets import (
    EnumerationFacet,
    MaxInclusiveFacet,
    MinInclusiveFacet,
)
from repro.algebra.state import StateAlgebra
from repro.schema.ast import (
    AllGroup,
    CombinationFactor,
    DocumentSchema,
    ElementDeclaration,
    GroupDefinition,
    RepetitionFactor,
)
from repro.schema.compiled import CompiledType

_WORDS = ("data", "value", "alpha", "beta", "gamma", "delta", "omega",
          "node", "tree", "model", "schema", "algebra")


class ValueSampler:
    """Generates valid literals for simple types."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng

    def sample(self, simple: SimpleType, attempts: int = 32) -> str:
        """A literal in the lexical space of *simple*.

        Raises :class:`ReproError` if no valid literal is found within
        *attempts* tries (e.g. for unsatisfiable facet combinations).
        """
        for _ in range(attempts):
            literal = self._candidate(simple)
            if literal is not None and simple.validate(literal):
                return literal
        raise ReproError(
            f"could not generate a value for {simple.type_name}")

    # ------------------------------------------------------------------

    def _candidate(self, simple: SimpleType) -> str | None:
        enum = self._enumeration_of(simple)
        if enum is not None:
            return enum
        if isinstance(simple, ListType):
            count = self._rng.randint(1, 4)
            return " ".join(self.sample(simple.item_type)
                            for _ in range(count))
        if isinstance(simple, UnionType):
            member = self._rng.choice(simple.member_types)
            return self.sample(member)
        if isinstance(simple, AtomicType):
            return self._atomic_candidate(simple)
        return None

    def _enumeration_of(self, simple: SimpleType) -> str | None:
        for step in simple.restriction_chain():
            for facet in step.facets:
                if isinstance(facet, EnumerationFacet):
                    value = self._rng.choice(facet.values)
                    return simple.canonical(value)
        return None

    def _integer_bounds(self, simple: SimpleType) -> tuple[int, int]:
        low, high = -10_000, 10_000
        for step in simple.restriction_chain():
            for facet in step.facets:
                if isinstance(facet, MinInclusiveFacet) and isinstance(
                        facet.bound, int):
                    low = max(low, facet.bound)
                if isinstance(facet, MaxInclusiveFacet) and isinstance(
                        facet.bound, int):
                    high = min(high, facet.bound)
        if low > high:
            low = high
        return low, high

    def _atomic_candidate(self, simple: AtomicType) -> str:
        primitive = simple.primitive_type()
        local = primitive.name.local if primitive and primitive.name else \
            "string"
        rng = self._rng
        if local == "string":
            words = rng.sample(_WORDS, k=rng.randint(1, 3))
            return " ".join(words)
        if local == "boolean":
            return rng.choice(("true", "false"))
        if local == "decimal":
            low, high = self._integer_bounds(simple)
            whole = rng.randint(low, high)
            return f"{whole}.{rng.randint(0, 99):02d}" \
                if rng.random() < 0.5 else str(whole)
        if local in ("float", "double"):
            return f"{rng.uniform(-1000, 1000):.3f}"
        if local == "duration":
            return f"P{rng.randint(0, 20)}Y{rng.randint(0, 11)}M"
        if local == "dateTime":
            return (f"{rng.randint(1970, 2030):04d}-"
                    f"{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
                    f"T{rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}"
                    f":{rng.randint(0, 59):02d}Z")
        if local == "date":
            return (f"{rng.randint(1970, 2030):04d}-"
                    f"{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}")
        if local == "time":
            return (f"{rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}"
                    f":{rng.randint(0, 59):02d}")
        if local == "gYearMonth":
            return f"{rng.randint(1970, 2030):04d}-{rng.randint(1, 12):02d}"
        if local == "gYear":
            return f"{rng.randint(1970, 2030):04d}"
        if local == "gMonthDay":
            return f"--{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
        if local == "gDay":
            return f"---{rng.randint(1, 28):02d}"
        if local == "gMonth":
            return f"--{rng.randint(1, 12):02d}"
        if local == "hexBinary":
            return "".join(rng.choice("0123456789ABCDEF")
                           for _ in range(2 * rng.randint(1, 6)))
        if local == "base64Binary":
            return "QUJD"  # "ABC"
        if local == "anyURI":
            return f"http://example.org/{rng.choice(_WORDS)}"
        if local in ("QName", "NOTATION"):
            return rng.choice(_WORDS)
        # Fallback: a plain NCName-ish token works for the name types.
        return "".join(rng.choice(string.ascii_lowercase)
                       for _ in range(6))


class InstanceBuilder:
    """Builds random S-trees for a schema."""

    def __init__(self, schema: DocumentSchema,
                 seed: int | random.Random = 0,
                 max_occurs_cap: int = 3,
                 nil_probability: float = 0.3,
                 mixed_text_probability: float = 0.5) -> None:
        self._schema = schema
        self._rng = (seed if isinstance(seed, random.Random)
                     else random.Random(seed))
        self._sampler = ValueSampler(self._rng)
        self._cap = max_occurs_cap
        self._nil_probability = nil_probability
        self._mixed_text_probability = mixed_text_probability

    def build(self, algebra: StateAlgebra | None = None) -> DocumentNode:
        """One random conforming document tree."""
        algebra = algebra or StateAlgebra()
        document = algebra.create_document()
        root = self._build_element(algebra, self._schema.root_element)
        algebra.append_child(document, root)
        return document

    # ------------------------------------------------------------------

    def _pick_count(self, repetition: RepetitionFactor) -> int:
        low = repetition.minimum
        high = (low + self._cap if repetition.unbounded
                else min(int(repetition.maximum), low + self._cap))
        return self._rng.randint(low, max(low, high))

    def _build_element(self, algebra: StateAlgebra,
                       declaration: ElementDeclaration) -> ElementNode:
        element = algebra.create_element(QName(
            self._element_namespace(), declaration.name))
        compiled = self._schema.type_of(declaration)
        nilled = declaration.nillable and self._rng.random() < \
            self._nil_probability
        algebra.annotate_element(element, compiled.type_name,
                                 simple_type=compiled.simple_type,
                                 nilled=nilled)
        self._add_attributes(algebra, element, compiled)
        if nilled:
            return element
        if compiled.simple_type is not None:
            algebra.append_child(element, algebra.create_text(
                self._sampler.sample(compiled.simple_type)))
        else:
            self._add_group_content(algebra, element, compiled)
        return element

    def _element_namespace(self) -> str:
        return self._schema.target_namespace

    def _add_attributes(self, algebra: StateAlgebra, element: ElementNode,
                        compiled: CompiledType) -> None:
        for name, attribute_type in (compiled.attributes or {}).items():
            simple = attribute_type.simple_type
            attribute = algebra.create_attribute(
                QName("", name), self._sampler.sample(simple))
            algebra.annotate_attribute(attribute, attribute_type.type_name,
                                       simple_type=simple)
            algebra.attach_attribute(element, attribute)

    def _add_group_content(self, algebra: StateAlgebra,
                           element: ElementNode,
                           compiled: CompiledType) -> None:
        elements: list[ElementNode] = []
        if compiled.model is not None:
            elements = self._generate_group(algebra, compiled.model.group)
        if not compiled.mixed:
            for child in elements:
                algebra.append_child(element, child)
            return
        # Mixed content: sprinkle text, never two adjacent text nodes.
        if not elements:
            if self._rng.random() < self._mixed_text_probability:
                algebra.append_child(
                    element, algebra.create_text(self._random_text()))
            return
        if self._rng.random() < self._mixed_text_probability:
            algebra.append_child(element,
                                 algebra.create_text(self._random_text()))
        for child in elements:
            algebra.append_child(element, child)
            if self._rng.random() < self._mixed_text_probability:
                algebra.append_child(
                    element, algebra.create_text(self._random_text()))

    def _random_text(self) -> str:
        return " ".join(self._rng.sample(_WORDS,
                                         k=self._rng.randint(1, 3)))

    def _generate_group(self, algebra: StateAlgebra,
                        group: "GroupDefinition | AllGroup"
                        ) -> list[ElementNode]:
        if isinstance(group, AllGroup):
            if group.repetition.minimum == 0 and self._rng.random() < 0.3:
                return []
            members = [m for m in group.members
                       if m.repetition.minimum >= 1
                       or (m.repetition.maximum != 0
                           and self._rng.random() < 0.6)]
            self._rng.shuffle(members)
            return [self._build_element(algebra, member)
                    for member in members]
        out: list[ElementNode] = []
        for _ in range(self._pick_count(group.repetition)):
            if group.combination is CombinationFactor.SEQUENCE:
                for member in group.members:
                    out.extend(self._generate_member(algebra, member))
            else:
                member = self._rng.choice(group.members)
                out.extend(self._generate_member(algebra, member))
        return out

    def _generate_member(self, algebra: StateAlgebra,
                         member) -> list[ElementNode]:
        if isinstance(member, GroupDefinition):
            return self._generate_group(algebra, member)
        return [self._build_element(algebra, member)
                for _ in range(self._pick_count(member.repetition))]
