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
for var, value in json.loads({env!r}).items():
    os.environ.pop(var, None)
    if value is not None:
        os.environ[var] = value
import dropcap as dc
def seen():
    return [
        "numpy" in sys.modules,
        os.environ.get("OPENBLAS_NUM_THREADS"),
        os.environ.get("OPENBLAS_THREAD_TIMEOUT"),
    ]
before = seen()
dc.discretize(dc.Ball((0.0, 0.0, 0.0), 1.0), 100, "boundary")
print(json.dumps([before, seen(), dc.operators.WORKERS]))
"""


def _threads_seen(fresh_python, **env):
    """What a fresh interpreter sees at import dropcap and after its first
    numpy work, and how many threads assemble its operators."""
    unset = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"))
    unset.update(DROPCAP_THREADS=None, OPENBLAS_THREAD_TIMEOUT=None)
    code = _THREADS_CODE.format(env=json.dumps({**unset, **env}))
    return json.loads(fresh_python(code).splitlines()[-1])


def test_dropcap_threads_is_set_before_numpy_loads(fresh_python):
    before, after, workers = _threads_seen(fresh_python, DROPCAP_THREADS="3")
    assert before == [False, "3", "18"], "import dropcap loaded numpy, or set no thread count"
    assert after == [True, "3", "18"]
    assert workers == 3


@pytest.mark.parametrize(
    "env, seen",
    [
        ({"DROPCAP_THREADS": "1", "OPENBLAS_THREAD_TIMEOUT": "4"}, [False, "1", "4"]),
        ({}, [False, None, None]),
        ({"DROPCAP_THREADS": "abc"}, [False, None, None]),
        ({"DROPCAP_THREADS": "0"}, [False, None, None]),
    ],
    ids=[
        "a user's timeout is kept",
        "nothing without DROPCAP_THREADS",
        "nothing for a DROPCAP_THREADS that is not a count",
        "nothing for zero threads",
    ],
)
def test_the_blas_spin_timeout_is_set_only_with_dropcap_threads(fresh_python, env, seen):
    """Without the cap, operators assemble on the calling thread alone."""
    before, _, workers = _threads_seen(fresh_python, **env)
    assert before == seen
    assert workers == 1
