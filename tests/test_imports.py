"""What importing the package loads: every command runs in a fresh interpreter,
so whatever the import pulls in is paid by each one."""

import os
import subprocess
import sys

import pytest

import plethysm

# the package's own directory's parent, so the child imports this copy
SOURCE_ROOT = os.path.dirname(os.path.dirname(plethysm.__file__))


@pytest.mark.parametrize("module", ["plethysm", "plethysm.cli"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    # -S: no site hook of this installation can load a module for the package
    code = (f"import sys, {module}; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=SOURCE_ROOT)
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
