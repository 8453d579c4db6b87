"""The public names: everything `wavefield.__all__` lists exists and is
mentioned in the README's "Library" section, every name that section
mentions exists in the package, and every `<module>.<name>` the whole README
cites resolves, so the docs cannot keep naming a function that was deleted and
the package root cannot export one the docs leave out."""

import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import wavefield

README = Path(__file__).resolve().parents[1] / "README.md"

#: A backticked identifier or dotted path, optionally called: `f`, `a.b`, `f(x, y)`.
_NAME = re.compile(r"^([A-Za-z_][\w.]*)(\(.*\))?$")


def _modules() -> dict:
    return {info.name: importlib.import_module(f"wavefield.{info.name}")
            for info in pkgutil.iter_modules(wavefield.__path__) if info.name != "__main__"}


def _library_section() -> str:
    text = README.read_text()
    start = text.index("\n## Library\n")
    end = text.index("\n## ", start + 1)
    return text[start:end]


def _members(modules: dict) -> set:
    """Fields and properties of the package's classes: what a bare name in
    prose may also refer to (`prepare_nodes`, `phi_a`)."""
    names = set()
    for module in modules.values():
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__.startswith("wavefield."):
                if dataclasses.is_dataclass(obj):
                    names.update(f.name for f in dataclasses.fields(obj))
                names.update(k for k, v in vars(obj).items() if isinstance(v, property))
    return names


def _resolves(name: str, modules: dict, members: set) -> bool:
    parts = name.removeprefix("wavefield.").split(".")
    owners = [modules[parts[0]]] if parts[0] in modules else \
        [getattr(m, parts[0]) for m in modules.values() if hasattr(m, parts[0])]
    if not owners:
        # a field named in prose, or one of a variable of the example (`value.diagnostics`)
        return parts[-1] in members
    obj = owners[0]
    for part in parts[1:]:
        if not hasattr(obj, part) and part not in getattr(obj, "__dataclass_fields__", {}):
            return False
        obj = getattr(obj, part, None)
    return True


def test_every_name_in_all_resolves():
    missing = [name for name in wavefield.__all__ if not hasattr(wavefield, name)]
    assert missing == []


def test_all_holds_only_names_the_library_section_mentions():
    section = _library_section()
    words = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`\n]+)`", section))))
    for names in re.findall(r"from wavefield import ([\w, ]+)", section):
        words.update(name.strip() for name in names.split(","))
    undocumented = [name for name in wavefield.__all__ if name != "__version__" and name not in words]
    assert undocumented == []


def test_readme_library_section_names_only_existing_code():
    section = _library_section()
    modules = _modules()
    members = _members(modules)
    imported = [(module, name.strip())
                for module, names in re.findall(r"from (wavefield[\w.]*) import ([\w, ]+)", section)
                for name in names.split(",")]
    assert imported
    missing = [f"{module}.{name}" for module, name in imported
               if not hasattr(importlib.import_module(module), name)]

    mentioned = []
    for token in re.findall(r"`([^`\n]+)`", section):
        match = _NAME.match(token)
        # names with an underscore, a dot or a capital; skip symbols (`K`, `e0`, `phi0`)
        if match and re.search(r"[_.]|^[A-Z]\w", match.group(1)):
            mentioned.append(match.group(1))
    assert "kernels.phase_pass" in mentioned and "PhasePass" in mentioned
    missing += [name for name in mentioned if not _resolves(name, modules, members)]
    assert missing == []


def test_every_module_member_the_readme_cites_resolves():
    modules = _modules()
    cited = set()
    for token in re.findall(r"`([^`\n]+)`", README.read_text()):
        match = _NAME.match(token)
        parts = match.group(1).removeprefix("wavefield.").split(".") if match else []
        if len(parts) > 1 and parts[0] in modules:
            cited.add(".".join(parts))
    # cited outside the Library section too
    assert {"kernels.phase_pass", "oracles.landau_green", "verification.check_determinism"} <= cited
    assert [name for name in sorted(cited) if not _resolves(name, modules, set())] == []
