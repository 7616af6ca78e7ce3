"""The runtime is standard-library only: importing every coaug module
loads no third-party package."""

import os
import subprocess
import sys

import coaug

# Runs under -I -S: no site-packages, no .pth hooks, only the coaug root.
_PROBE = """
import importlib, pkgutil, sys
sys.path.insert(0, {root!r})
import coaug
for info in pkgutil.walk_packages(coaug.__path__, "coaug."):
    if not info.name.endswith(".__main__"):  # importing it runs the CLI
        importlib.import_module(info.name)
print(" ".join(sorted({{name.split(".")[0] for name in sys.modules}})))
"""


def test_importing_every_module_loads_only_the_standard_library():
    root = os.path.dirname(os.path.dirname(os.path.abspath(coaug.__file__)))
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _PROBE.format(root=root)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert {"coaug", "json"} <= loaded
    foreign = loaded - set(sys.stdlib_module_names) - {"coaug", "__main__"}
    assert not foreign, f"non-stdlib modules imported by coaug: {sorted(foreign)}"
