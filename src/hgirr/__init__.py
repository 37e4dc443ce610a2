"""Spectral radius and irregularity measures of r-uniform hypergraphs.

Build or generate an instance, solve for the adjacency-tensor spectral
radius, and check the irregularity measures and inequality suite::

    from hgirr import build, spectral_radius, analyze

    H = build(3, 5, [[1, 2, 3], [1, 4, 5]])
    result = spectral_radius(H)
    report = analyze(H)
"""

from .constructions import (
    blow_up,
    complete_r_partite,
    direct_product,
    random_r_partite,
    random_uniform,
    single_edge,
)
from .core import (
    EdgeTrace,
    HypergraphError,
    Partition,
    UniformHypergraph,
    build,
    components,
    degrees,
    first_partition_violation,
    is_connected,
    is_regular,
    relabel,
    symmetric_difference_size,
    union_edges,
    validate_partition,
)
from .hgr import HgrFormatError, parse_hgr, parse_partition_text, write_hgr
from .irregularity import (
    BoundCheck,
    IrregularityReport,
    analyze,
    average_degree,
    bound_suite,
    epsilon,
    regularize,
    regularize_partitewise,
    s_measure,
    s_r_measure,
    v_measure,
    weyl_check,
)
from .spectral import (
    SpectralOptions,
    SpectralResult,
    apply_adjacency,
    residual,
    spectral_radius,
)

__version__ = "0.1.0"

__all__ = [
    "BoundCheck",
    "EdgeTrace",
    "HgrFormatError",
    "HypergraphError",
    "IrregularityReport",
    "Partition",
    "SpectralOptions",
    "SpectralResult",
    "UniformHypergraph",
    "analyze",
    "apply_adjacency",
    "average_degree",
    "blow_up",
    "bound_suite",
    "build",
    "complete_r_partite",
    "components",
    "degrees",
    "direct_product",
    "epsilon",
    "first_partition_violation",
    "is_connected",
    "is_regular",
    "parse_hgr",
    "parse_partition_text",
    "random_r_partite",
    "random_uniform",
    "regularize",
    "regularize_partitewise",
    "relabel",
    "residual",
    "s_measure",
    "s_r_measure",
    "single_edge",
    "spectral_radius",
    "symmetric_difference_size",
    "union_edges",
    "v_measure",
    "validate_partition",
    "weyl_check",
    "write_hgr",
]
