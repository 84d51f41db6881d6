import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_the_package_imports_numpy_and_the_standard_library_alone():
    code = ("import json, sys\n"
            "before = set(sys.modules)\n"
            "import craft, craft.cli\n"
            "added = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "print(json.dumps(sorted(added - set(sys.stdlib_module_names))))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert json.loads(out.stdout) == ["craft", "numpy"]


# each file format has one reader, in the module that owns the format, and data.write_file
# is the one writer; a call to open() anywhere else is file I/O leaking into another layer
FILE_OPENERS = {"data.load_csv", "data._load_csv_rows", "data.write_file", "network.load_checkpoint",
                "priors.load_prior", "cli.config_from_args"}


def test_only_the_format_readers_and_writer_open_files():
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
