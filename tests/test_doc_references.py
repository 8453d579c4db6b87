"""Every backticked `module.attr[.attr...]` reference in README.md and in the
package's sources that names one of the package's modules resolves, attribute
by attribute, so no text names a helper that is gone. File names such as
`conventions.py` are not references. README cites no private name of the
modules whose docstrings hold the evaluation's mechanism."""

import ast
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
    # the scan finds references at all: README names the phase pass
    assert ("README.md", "kernels", ("phase_pass",)) in references
    assert [f"{where}: `{module}.{'.'.join(attrs)}`" for where, module, attrs in references
            if not _resolves(module, attrs)] == []


def test_a_reference_to_a_removed_helper_is_caught():
    assert not _resolves("green", ("_Ray",)) and not _resolves("quadrature", ("_each",))
    assert not _resolves("quadrature", ("_Problem", "rule"))
    assert _resolves("quadrature", ("_Problem", "advance"))


#: The modules whose docstrings hold the evaluation's mechanism: README states
#: the contract and cites none of their private names.
MECHANISM = ("quadrature", "kernels", "green")
_PRIVATE = re.compile(r"`(?:wavefield\.)?(?:(\w+)\.)?(_[A-Za-z]\w*)")


def _private_citations(text: str) -> list:
    """The backticked private names of `text` that belong to a MECHANISM
    module: cited through it (`green._ray`), or bare and defined at its top
    level (`_Pass`, `_Problem.advance`). A private name of another module
    (`fields._real`, `cli._COMMANDS`) is not one."""
    defined = set()
    for module in MECHANISM:
        for stmt in ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined.update(node.id for target in targets for node in ast.walk(target)
                               if isinstance(node, ast.Name))
    return [f"{module}.{name}" if module else name for module, name in _PRIVATE.findall(text)
            if module in MECHANISM or (not module and name in defined)]


def test_readme_cites_no_private_name_of_the_mechanism_modules():
    assert _private_citations((ROOT / "README.md").read_text(encoding="utf-8")) == []


def test_a_private_citation_is_caught_and_another_modules_is_not():
    text = ("`quadrature._lockstep_quad`, `_Problem.advance`, `wavefield.green._ray`, "
            "`_SEED_RADIANS`, `fields._real`, `cli._COMMANDS`, `_MUTATIONS`, `x_a`")
    assert _private_citations(text) == ["quadrature._lockstep_quad", "_Problem",
                                        "green._ray", "_SEED_RADIANS"]
