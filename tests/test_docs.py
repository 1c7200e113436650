"""Documentation hygiene tests.

* every public module, class and function carries a docstring;
* the generated API reference (docs/API.md) is in sync with the code.
"""

import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_docgen():
    spec = importlib.util.spec_from_file_location(
        "gen_api_docs", REPO_ROOT / "tools" / "gen_api_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def all_repro_modules():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if "__main__" in info.name:
            continue
        names.append(info.name)
    return sorted(names)


@pytest.mark.parametrize("module_name", all_repro_modules())
def test_every_module_has_a_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), module_name


@pytest.mark.parametrize("module_name", all_repro_modules())
def test_every_public_callable_has_a_docstring(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    for name, obj in inspect.getmembers(module):
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module_name:
            continue
        if exported is not None and name not in exported:
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__ and obj.__doc__.strip(), (
                f"{module_name}.{name} has no docstring"
            )
            if inspect.isclass(obj):
                for method_name, method in inspect.getmembers(
                    obj, inspect.isfunction
                ):
                    if method_name.startswith("_"):
                        continue
                    if method.__qualname__.split(".")[0] != obj.__name__:
                        continue
                    assert method.__doc__ and method.__doc__.strip(), (
                        f"{module_name}.{name}.{method_name} has no docstring"
                    )


def test_api_reference_is_in_sync():
    """docs/API.md must match a fresh render of the docstrings.

    Regenerate with ``python tools/gen_api_docs.py`` after API changes.
    """
    docgen = _load_docgen()
    committed = (REPO_ROOT / "docs" / "API.md").read_text()
    assert committed == docgen.build_markdown()


def test_required_documents_exist():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        path = REPO_ROOT / name
        assert path.exists() and path.stat().st_size > 1_000, name
