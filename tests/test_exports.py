import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import craft


def craft_modules():
    return [importlib.import_module(f"craft.{info.name}") for info in pkgutil.iter_modules(craft.__path__)]


def test_every_module_export_resolves():
    stale = [f"{module.__name__}.{name}" for module in craft_modules()
             for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert stale == []


def test_the_package_binds_no_function_or_class():
    # every name is imported from the module that defines it; craft itself holds
    # its version and, once they are imported, its submodules
    bound = [name for name, value in vars(craft).items()
             if not (name.startswith("__") and name.endswith("__")
                     or isinstance(value, types.ModuleType))]
    assert bound == []


def test_the_package_imports_numpy_and_the_standard_library_alone():
    code = ("import json, sys\n"
            "before = set(sys.modules)\n"
            "import craft, craft.cli\n"
            "added = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "print(json.dumps(sorted(added - set(sys.stdlib_module_names))))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert json.loads(out.stdout) == ["craft", "numpy"]


# craft.data holds every file read and write: the CSV readers, data.read_json for every JSON
# file and data.write_file for every write; a call to open() anywhere else is file I/O
# leaking into another layer
FILE_OPENERS = {"data.read_json", "data.load_csv", "data._load_csv_rows", "data.write_file"}


def test_only_craft_data_opens_files():
    package = Path(craft.__file__).parent
    openers = set()
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                if isinstance(node, ast.Call) and (
                        isinstance(func, ast.Name) and func.id == "open"
                        or isinstance(func, ast.Attribute) and func.attr == "open"):
                    name = getattr(top, "name", f"line {node.lineno}")
                    openers.add(f"{path.stem}.{name}")
    assert openers == FILE_OPENERS
