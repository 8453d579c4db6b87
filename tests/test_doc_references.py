"""Every backticked `module.attr[.attr...]` reference in README.md and in the
package's sources that names one of the package's modules resolves, attribute
by attribute, so no text names a helper that is gone. File names such as
`conventions.py` are not references."""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wavefield"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if not path.stem.startswith("__"))
_REFERENCE = re.compile(r"`(?:wavefield\.)?(%s)((?:\.[A-Za-z_]\w*)+)" % "|".join(MODULES))


def _references() -> list:
    """(file, module, attribute path) of every reference, file names skipped."""
    found = []
    for path in [ROOT / "README.md", *sorted(PACKAGE.glob("*.py"))]:
        for match in _REFERENCE.finditer(path.read_text(encoding="utf-8")):
            attrs = match.group(2).split(".")[1:]
            if attrs != ["py"]:
                found.append((path.name, match.group(1), tuple(attrs)))
    return found


def _resolves(module: str, attrs: tuple) -> bool:
    obj = importlib.import_module(f"wavefield.{module}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_every_backticked_module_reference_resolves():
    references = _references()
    # the scan finds references at all: README names the runner
    assert ("README.md", "quadrature", ("_lockstep_quad",)) in references
    assert [f"{where}: `{module}.{'.'.join(attrs)}`" for where, module, attrs in references
            if not _resolves(module, attrs)] == []


def test_a_reference_to_a_removed_helper_is_caught():
    assert not _resolves("green", ("_Ray",)) and not _resolves("quadrature", ("_each",))
    assert not _resolves("quadrature", ("_Problem", "rule"))
    assert _resolves("quadrature", ("_Problem", "advance"))
