"""One caching convention in the library.

A table derived from an object is a ``functools.cached_property`` of
that object, built once on first use.  The one ``lru_cache`` memoises
catalog construction in ``catalog.py``.  This guard fails on any other
memo: a write to an instance ``__dict__``, an attribute or key named
``*_cache``, or an ``lru_cache`` outside ``catalog.py``.
"""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mirrorforge"
LRU_CACHE_ALLOWED = {"catalog.py"}


def violations(filename, text):
    found = []
    for number, line in enumerate(text.splitlines(), 1):
        where = f"{filename}:{number}"
        if "__dict__" in line:
            found.append(f"{where}: instance __dict__")
        names = set(re.findall(r"\w+_cache\b", line)) - {"lru_cache"}
        if names:
            found.append(f"{where}: cache attribute {sorted(names)}")
        if "lru_cache" in line and filename not in LRU_CACHE_ALLOWED:
            found.append(f"{where}: lru_cache outside the catalog")
    return found


def test_the_library_keeps_one_caching_convention():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [v for path in files for v in violations(path.name, path.read_text())]
    assert not found, "\n".join(found)


@pytest.mark.parametrize(
    "line",
    [
        'cache = self.__dict__.setdefault("_face_chart_cache", {})',
        "self._cert_cache = None",
        'cover.__dict__["_nested_pairs_cache"] = result',
        "@functools.lru_cache(maxsize=None)",
        "from functools import lru_cache",
    ],
)
def test_the_guard_sees_each_old_mechanism(line):
    assert violations("cover.py", line)


def test_the_guard_allows_cached_properties_and_the_catalog_cache():
    prop = "    @cached_property\n    def nested_pairs(self):"
    memo = "from functools import lru_cache\n@lru_cache(maxsize=None)"
    assert not violations("cover.py", prop)
    assert not violations("catalog.py", memo)
