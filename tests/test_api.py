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
    exported = getattr(mod, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(mod, name)] == []


def test_package_exports_names():
    assert "unirep.sampling" in SUBMODULES
    assert {"unit_uniform", "sample_graph", "mc_two_sample_test"} <= set(unirep.__all__)
