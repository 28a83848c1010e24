"""Package-level checks: every exported name resolves, the package imports
no scipy, the README's distribution descriptors build, and every name in its
module table exists."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import coalsim
from coalsim.distributions import from_descriptor

MODULES = (
    "distributions",
    "dynamics",
    "exact_chain",
    "simulate",
    "tail_bounds",
    "variational",
    "asymptotics",
    "cli",
)
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"coalsim.{name}")
    # a stale name here breaks `from coalsim.<module> import *`
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_no_module_imports_scipy():
    # a child process: this one may have scipy loaded by pytest plugins
    modules = ", ".join(["coalsim"] + [f"coalsim.{name}" for name in MODULES])
    code = (
        f"import sys, {modules}\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(coalsim.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_package_exports_every_module_name_once():
    # the namespace is the seven library modules' __all__ lists, in order; a
    # name that two modules export would show up twice
    names = [
        (name, module)
        for module in MODULES
        if module != "cli"
        for name in importlib.import_module(f"coalsim.{module}").__all__
    ]
    assert coalsim.__all__ == [name for name, _ in names]
    assert len(set(coalsim.__all__)) == len(coalsim.__all__)
    for name, module in names:
        assert getattr(coalsim, name) is getattr(importlib.import_module(f"coalsim.{module}"), name)
    star: dict = {}
    exec("from coalsim import *", star)
    assert sorted(set(star) - {"__builtins__"}) == sorted(coalsim.__all__)


def test_readme_descriptors_build():
    text = README.read_text()
    block = re.search(r"Distribution descriptors:\s*```json\n(.*?)```", text, re.S)
    lines = [line for line in block.group(1).splitlines() if line.strip()]
    assert len(lines) == 4
    for line in lines:
        descriptor = json.loads(line)
        p = from_descriptor(descriptor)
        if "c2" in descriptor:
            assert p.moments().c2 == pytest.approx(descriptor["c2"], abs=1e-12)
        if "c3" in descriptor:
            assert p.moments().c3 == pytest.approx(descriptor["c3"], abs=1e-12)


def test_readme_module_table_names_exist():
    # every identifier-shaped backticked token in a row of "Key operations by
    # module" is a public name of that row's module or a package export; a
    # dotted name resolves attribute by attribute
    text = README.read_text()
    table = re.search(r"Key operations by module:\n\n(.*?)\n\n", text, re.S).group(1)
    rows = [
        (row.group(1), re.findall(r"`([^`]+)`", row.group(2)))
        for row in re.finditer(r"^\| `(\w+)`\s*\|(.*)\|$", table, re.M)
    ]
    assert sorted(module for module, _ in rows) == sorted(set(MODULES) - {"cli"})
    stale = []
    for module_name, tokens in rows:
        module = importlib.import_module(f"coalsim.{module_name}")
        for token in tokens:
            if not re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", token):
                continue  # a formula such as `O(n k^3)`
            head, *attrs = token.split(".")
            if head in module.__all__:
                obj = getattr(module, head)
            elif not head.startswith("_") and hasattr(coalsim, head):
                obj = getattr(coalsim, head)
            else:
                stale.append((module_name, token))
                continue
            for attr in attrs:
                if not hasattr(obj, attr):
                    stale.append((module_name, token))
                    break
                obj = getattr(obj, attr)
    assert stale == []
