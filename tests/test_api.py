"""The package's public API is the literal `fuzzymaps.__all__`: it is what
the package binds, what a star import binds, and what README.md's
"Library API" section lists."""

import pathlib
import re
import types

import fuzzymaps

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_all_is_the_bound_star_imported_and_documented_api():
    public = [name for name, value in vars(fuzzymaps).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)]
    assert sorted(fuzzymaps.__all__) == sorted(public)
    namespace = {}
    exec("from fuzzymaps import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(fuzzymaps.__all__)
    # a bare name in backquotes is listed; a helper is written with its
    # module prefix (`dynamics.describe_outcome`) and is not
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library API\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"`([A-Za-z_]\w*)`", section)
    assert sorted(listed) == sorted(fuzzymaps.__all__)
