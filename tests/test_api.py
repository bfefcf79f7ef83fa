import importlib
import pkgutil

import pytest

import unirep

# every submodule but ``__main__``, which runs the command line on import
SUBMODULES = sorted(
    f"unirep.{m.name}" for m in pkgutil.iter_modules(unirep.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("module", ["unirep"] + SUBMODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    exported = mod.__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(mod, name)] == []


def test_package_exports_names():
    assert "unirep.sampling" in SUBMODULES
    assert {"unit_uniform", "sample_graph", "mc_two_sample_test"} <= set(unirep.__all__)


# the package API, in order, as it stood when the package listed it by hand
PACKAGE_ALL = [
    "ArityError", "BorelEmbedding", "CantorCode", "Cdf", "DiscreteSpace", "DomainError",
    "IntervalPartition", "JointLaw", "Kernel", "KernelFamily", "KindError", "Latents",
    "MeasurabilityError", "PATTERNS", "PatternGraph", "PowerError", "RandomGraph",
    "RangeError", "SampleArray", "ScaleError", "SpecDocument", "SpecError",
    "SymmetryError", "UnirepError", "UnsupportedError", "ValueSpace", "borel_embed",
    "cantor_encode", "cantor_represent_family", "cdf_of_pushforward", "check_symmetry",
    "dump_represented", "eval_kernel", "exact_joint_law", "exchangeability_check",
    "graph_law_exact", "hom_density", "interval_partition", "law_is_exchangeable",
    "load_spec", "loads_spec", "lookup_cell", "mc_two_sample_test", "quantile",
    "quantile_array", "represent_family", "sample_array", "sample_graph",
    "sample_latents", "sigma_atoms", "step_family_as_space", "transport_map",
    "tv_distance", "unit_uniform", "unit_uniform_array", "validate_space",
]


def test_package_all_is_pinned():
    assert unirep.__all__ == PACKAGE_ALL


def test_each_public_name_declared_once():
    # the command line is not part of the Python API
    lists = [importlib.import_module(m).__all__ for m in SUBMODULES if m != "unirep.cli"]
    names = [name for names in lists for name in names]
    assert len(set(names)) == len(names)
    assert unirep.__all__ == sorted(names)


@pytest.mark.parametrize(
    "module, name",
    [
        ("unirep.sampling", "derive_seed"),
        ("unirep.sampling", "sample_graph_edges"),
        ("unirep.sampling", "pair_list"),
        ("unirep.sampling", "graph_bitmask"),
        ("unirep.spaces", "lookup_cells"),
    ],
)
def test_module_helpers_stay_importable(module, name):
    assert callable(getattr(importlib.import_module(module), name))
    assert name not in unirep.__all__
