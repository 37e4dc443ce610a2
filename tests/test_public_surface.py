"""The package's public names: each module declares its own in ``__all__``,
and ``hgirr`` re-exports every one of them and nothing else."""

import itertools

import hgirr
from hgirr import constructions, core, hgr, irregularity, spectral

MODULES = (constructions, core, hgr, irregularity, spectral)

PUBLIC = [
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


def test_package_exports_the_pinned_names_in_sorted_order():
    assert PUBLIC == sorted(PUBLIC)
    assert hgirr.__all__ == PUBLIC


def test_module_lists_are_pairwise_disjoint():
    # the package star-imports every module, so a name listed twice would
    # silently resolve to the later module's object
    for a, b in itertools.combinations(MODULES, 2):
        assert not set(a.__all__) & set(b.__all__), (a.__name__, b.__name__)


def test_every_name_is_the_object_of_the_module_that_lists_it():
    owner = {name: module for module in MODULES for name in module.__all__}
    assert sorted(owner) == PUBLIC
    for name in PUBLIC:
        obj = getattr(hgirr, name)
        assert obj is getattr(owner[name], name), name
        assert obj.__module__ == owner[name].__name__, name
