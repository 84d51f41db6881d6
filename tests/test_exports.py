import importlib
import pkgutil
import sys

import craft


def craft_modules():
    return [importlib.import_module(f"craft.{info.name}") for info in pkgutil.iter_modules(craft.__path__)]


def test_every_module_export_resolves():
    stale = [f"{module.__name__}.{name}" for module in craft_modules()
             for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert stale == []


def test_every_package_name_is_exported_by_its_module():
    # a name craft re-exports must still be listed in the __all__ of the module defining it
    stale = []
    for name, value in vars(craft).items():
        defined_in = getattr(value, "__module__", None)
        if name.startswith("_") or defined_in is None or not defined_in.startswith("craft."):
            continue
        if name not in getattr(sys.modules[defined_in], "__all__", ()):
            stale.append(f"{defined_in}.{name}")
    assert stale == []
