"""Core of the extended Skillicorn taxonomy.

Public surface of the paper's primary contribution: component and
connectivity vocabulary, architecture signatures, the 47-class
enumeration (Table I), the naming scheme (Fig. 2), the flexibility
scoring system (Table II) and the classifier used to place real machines
(Table III).
"""

from repro.core.baselines import (
    FlynnClass,
    SkillicornVerdict,
    baseline_resolution,
    extension_report,
    flynn_class,
    skillicorn_verdict,
)
from repro.core.batch import (
    BatchClassification,
    BatchEstimates,
    CompiledTaxonomy,
    KernelUnavailableError,
    SignatureBatch,
    classify_batch,
    compile_taxonomy,
    kernel_supports,
    price_batch,
)
from repro.core.classify import Classification, canonical_class, classify
from repro.core.compare import NameComparison, compare_classes, compare_names, similarity
from repro.core.components import (
    ComponentCount,
    ComponentKind,
    Granularity,
    Multiplicity,
    multiplicity_of_count,
)
from repro.core.connectivity import LINK_SITES, Link, LinkKind, LinkSite
from repro.core.errors import (
    CapabilityError,
    ClassificationError,
    ConfigurationError,
    FaultError,
    NamingError,
    NotImplementableError,
    ProgramError,
    RegistryError,
    ReproError,
    RoutingError,
    SignatureError,
)
from repro.core.flexibility import (
    FlexibilityScore,
    comparable,
    flexibility,
    score_signature,
)
from repro.core.hierarchy import HierarchyNode, build_hierarchy, iter_paths
from repro.core.naming import (
    MachineType,
    ProcessingType,
    TaxonomicName,
    roman,
    unroman,
)
from repro.core.signature import Signature, make_signature
from repro.core.taxonomy import (
    SECTION_HEADINGS,
    TaxonomyClass,
    all_classes,
    class_by_name,
    class_by_serial,
    enumerate_classes,
    implementable_classes,
)

__all__ = [
    # baselines
    "FlynnClass",
    "SkillicornVerdict",
    "baseline_resolution",
    "extension_report",
    "flynn_class",
    "skillicorn_verdict",
    # batch kernel
    "BatchClassification",
    "BatchEstimates",
    "CompiledTaxonomy",
    "KernelUnavailableError",
    "SignatureBatch",
    "classify_batch",
    "compile_taxonomy",
    "kernel_supports",
    "price_batch",
    # components / connectivity
    "ComponentCount",
    "ComponentKind",
    "Granularity",
    "Multiplicity",
    "multiplicity_of_count",
    "LINK_SITES",
    "Link",
    "LinkKind",
    "LinkSite",
    # signatures
    "Signature",
    "make_signature",
    # taxonomy
    "SECTION_HEADINGS",
    "TaxonomyClass",
    "all_classes",
    "class_by_name",
    "class_by_serial",
    "enumerate_classes",
    "implementable_classes",
    # naming
    "MachineType",
    "ProcessingType",
    "TaxonomicName",
    "roman",
    "unroman",
    # flexibility
    "FlexibilityScore",
    "comparable",
    "flexibility",
    "score_signature",
    # classification
    "Classification",
    "canonical_class",
    "classify",
    # comparison
    "NameComparison",
    "compare_classes",
    "compare_names",
    "similarity",
    # hierarchy
    "HierarchyNode",
    "build_hierarchy",
    "iter_paths",
    # errors
    "ReproError",
    "SignatureError",
    "ClassificationError",
    "NotImplementableError",
    "NamingError",
    "CapabilityError",
    "ConfigurationError",
    "FaultError",
    "RoutingError",
    "ProgramError",
    "RegistryError",
]
