"""The package's export lists and its import on use."""

import importlib
import json
import pkgutil

import pytest

import dropcap

MODULES = ["dropcap"] + [f"dropcap.{m.name}" for m in pkgutil.iter_modules(dropcap.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "a name is exported twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from dropcap import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(dropcap.__all__)


def test_dir_lists_the_exports_and_unknown_names_raise():
    assert set(dropcap.__all__) <= set(dir(dropcap))
    with pytest.raises(AttributeError, match="no_such_name"):
        dropcap.no_such_name


def test_names_resolve_on_their_module_at_every_access(monkeypatch):
    import dropcap.equilibrium

    marker = object()
    monkeypatch.setattr(dropcap.equilibrium, "equilibrium_measure", marker)
    assert dropcap.equilibrium_measure is marker
    monkeypatch.undo()
    assert dropcap.equilibrium_measure is dropcap.equilibrium.equilibrium_measure
    assert "equilibrium_measure" not in vars(dropcap)


_SUBMODULES_CODE = """
import json
import dropcap
names = {names!r}
unlisted = sorted(set(names) - set(dir(dropcap)))
print(json.dumps([unlisted, [getattr(dropcap, n).__name__ for n in names]]))
"""


def test_every_submodule_is_listed_and_loads_on_first_use(fresh_python):
    names = sorted(name.split(".")[1] for name in MODULES[1:])
    out = fresh_python(_SUBMODULES_CODE.format(names=names))
    unlisted, resolved = json.loads(out.splitlines()[-1])
    assert unlisted == []
    assert resolved == [f"dropcap.{name}" for name in names]


_THREADS_CODE = """
import json, os, sys
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.pop(var, None)
os.environ["DROPCAP_THREADS"] = "1"
import dropcap as dc
seen = ["numpy" in sys.modules, os.environ.get("OPENBLAS_NUM_THREADS")]
dc.discretize(dc.Ball((0.0, 0.0, 0.0), 1.0), 100, "boundary")
print(json.dumps(seen + ["numpy" in sys.modules, os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


def test_dropcap_threads_is_set_before_numpy_loads(fresh_python):
    before, threads, after, threads_after = json.loads(fresh_python(_THREADS_CODE).splitlines()[-1])
    assert not before, "import dropcap loaded numpy"
    assert threads == "1"
    assert after and threads_after == "1"
