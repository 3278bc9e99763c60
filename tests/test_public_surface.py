"""The public surface: every exported name exists, and the README's library
example runs and prints what it says it prints."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ["kcontact", "kcontact.cli", "kcontact.connection", "kcontact.errors",
           "kcontact.holonomy", "kcontact.jets", "kcontact.manifolds", "kcontact.spinor",
           "kcontact.transport", "kcontact.transverse"]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves_every_exported_name(module):
    # a stale __all__ entry makes the star import raise AttributeError
    exec(f"from {module} import *", {})


def test_readme_library_example_prints_its_comment():
    text = README.read_text()
    section = text[text.index("## Library"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    h_dim, h0_dim, comparison = out.getvalue().strip().split(" ", 2)
    assert (h_dim, h0_dim) == ("1", "2")
    assert re.search(r"'codim': 1\b", comparison)
