"""The package namespace: submodules loaded on first use, names imported from them."""

import importlib
import json
import pkgutil
import subprocess
import sys

import pytest

import navit_pack


def test_names_import_from_their_submodule():
    from navit_pack.geometry import plan_resize

    assert navit_pack.geometry.plan_resize is plan_resize
    assert navit_pack.__version__ == "0.1.0"
    with pytest.raises(ImportError):
        from navit_pack import plan_resize  # noqa: F401, F811


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        navit_pack.no_such_name
    with pytest.raises(ImportError):
        from navit_pack import no_such_name  # noqa: F401


def test_import_loads_no_submodule_until_used():
    script = (
        "import json, sys, navit_pack\n"
        "loaded = sorted(m for m in sys.modules if m == 'numpy' or m.startswith('navit_pack'))\n"
        "print(json.dumps([loaded, navit_pack.packing.__name__]))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert json.loads(result.stdout) == [["navit_pack"], "navit_pack.packing"]


def test_every_submodule_is_an_attribute():
    script = (
        "import json, pkgutil, navit_pack\n"
        "names = [m.name for m in pkgutil.iter_modules(navit_pack.__path__)\n"
        "         if m.name != '__main__']\n"
        "print(json.dumps({n: getattr(navit_pack, n).__name__ for n in names}))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    resolved = json.loads(result.stdout)
    assert {"cli", "selfcheck", "vet"} <= set(resolved)
    assert resolved == {name: f"navit_pack.{name}" for name in resolved}


def test_each_submodule_all_names_exist():
    for info in pkgutil.iter_modules(navit_pack.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"navit_pack.{info.name}")
        public = getattr(module, "__all__", ())
        for name in public:
            assert hasattr(module, name), f"{info.name}.{name}"
