"""Content-model matching for complex types (Section 6.2, item 5.4.2.3).

Repetition factors stay counters: Brzozowski derivatives match child
sequences (:class:`ContentModel` is the validator's and the checker's
facade) and :func:`competing_names` decides Unique Particle
Attribution; the tests check both against Glushkov on the expansion.
"""

from repro.content.derivatives import DerivativeMatcher, derive
from repro.content.matcher import ContentModel
from repro.content.particles import (
    AllParticle,
    ChoiceParticle,
    EmptyParticle,
    NameParticle,
    Particle,
    RepeatParticle,
    SequenceParticle,
    compile_group,
)
from repro.content.upa import competing_names

__all__ = [
    "AllParticle",
    "ChoiceParticle",
    "ContentModel",
    "DerivativeMatcher",
    "EmptyParticle",
    "NameParticle",
    "Particle",
    "RepeatParticle",
    "SequenceParticle",
    "compile_group",
    "competing_names",
    "derive",
]
