"""Package surface: stdlib-only imports, an export list that resolves, a README that runs."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import satfeas
from satfeas import config_from_dict
from satfeas.config import RunConfig
from satfeas.model import to_json

from conftest import GOLDEN

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Prints the top-level modules that importing the CLI loads, one per line.
_IMPORT_CLI = """
import sys
before = set(sys.modules)
import satfeas.cli
print("\\n".join(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def _run_fresh(code: str) -> str:
    """The stdout of ``code`` run by a fresh interpreter from the repo root, src on its path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout


def test_cli_imports_only_the_standard_library():
    # a fresh interpreter: this test process has pytest and hypothesis loaded
    loaded = _run_fresh(_IMPORT_CLI).split()
    assert "satfeas" in loaded
    assert [m for m in loaded if m != "satfeas" and m not in sys.stdlib_module_names] == []


def test_cli_start_up_loads_no_code_generation_or_introspection():
    # the model types are hand-written records: no dataclass machinery runs at import
    loaded = set(_run_fresh(_IMPORT_CLI).split())
    assert "satfeas" in loaded
    assert loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"} == set()


#: The public surface: adding or removing an export is an edit to this list.
PUBLIC_NAMES = [
    "Asset", "CascadeInput", "ExclusionCategory", "RebalanceEvent", "RebalanceProposal",
    "SatelliteDesign", "TierClass", "ValidationError", "compute_bounds", "config_from_dict",
    "filter_rebalance", "load_config", "replay", "run_cascade",
]


def test_public_surface_is_pinned():
    assert sorted(satfeas.__all__) == PUBLIC_NAMES


def test_every_exported_name_resolves():
    assert len(set(satfeas.__all__)) == len(satfeas.__all__)
    assert [name for name in satfeas.__all__ if not hasattr(satfeas, name)] == []


def test_the_readme_library_example_runs():
    # the snippet imports from the root: it fails if a name it uses leaves the surface
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("\n## Library\n"):]
    start = section.index("```python\n") + len("```python\n")
    snippet = section[start:section.index("```", start)]
    golden = json.loads((GOLDEN / "ai_report.json").read_text())
    constituents = tuple(map(tuple, golden["design"]["constituents"]))
    assert _run_fresh(snippet) == f"{golden['report']['binding_layer']} {constituents}\n"


def _readme_json_blocks(heading: str) -> list:
    """The JSON code blocks of the README section under ``heading``, decoded."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index(f"\n## {heading}"):]
    section = section[:section.index("\n## ", 1)]
    return [json.loads(block.split("```", 1)[0]) for block in section.split("```json\n")[1:]]


def test_the_readme_config_blocks_are_the_fixture_and_the_defaults():
    fixture, defaults = _readme_json_blocks("Config schema")
    assert fixture == json.loads((ROOT / "fixtures" / "ai_config.json").read_text())
    assert config_from_dict(defaults) == RunConfig() == config_from_dict({})
    # every key of the schema is listed: the round trip through to_json is the whole config
    cfg = RunConfig()
    assert defaults == {**to_json(cfg.params), "theme": cfg.theme,
                        "tilts": {"kappa_a": cfg.kappa_a, "kappa_c": cfg.kappa_c},
                        "candidates": None, "core_weights": None}


#: Codes of the list-entry rules, whose one home is ``satfeas/model.py``.
ENTRY_RULE_CODES = {"bad_id", "duplicate_id", "not_finite"}


def test_entry_rule_codes_only_in_the_model():
    # a loader restates a model error at its row; it never words the rule itself
    homes = sorted({path.name for path in (SRC / "satfeas").glob("*.py")
                    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                    if isinstance(node, ast.Constant) and node.value in ENTRY_RULE_CODES})
    assert homes == ["model.py"]


def _constant_homes(value) -> list[str]:
    """``module.function`` (``module.Class.method`` for a method) of each innermost function
    in src whose code holds ``value``, or a constant that ``value`` accepts if it is callable;
    ``module.NAME`` in a module-level assignment to NAME, ``module.Class`` in a class body,
    else ``module``."""
    homes = set()
    match = value if callable(value) else (lambda constant: constant == value)

    def visit(node, where, in_class=False):
        module = where.split(".")[0]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}" if in_class else f"{module}.{node.name}"
        elif isinstance(node, ast.ClassDef):
            where = f"{module}.{node.name}"
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and where == module:
            target = node.targets[0] if isinstance(node, ast.Assign) else node.target
            where = f"{module}.{target.id}" if isinstance(target, ast.Name) else where
        if isinstance(node, ast.Constant) and match(node.value):
            homes.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where, isinstance(node, ast.ClassDef))

    for path in (SRC / "satfeas").glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return sorted(homes)


def test_config_holds_no_numeric_literal():
    # every default is its record's constructor default, which the config reads
    tree = ast.parse((SRC / "satfeas" / "config.py").read_text(encoding="utf-8"))
    assert [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
            and type(node.value) in (int, float, complex)] == []


def test_the_shipped_tilts_and_theme_are_written_once():
    # SatelliteDesign, CascadeInput, RunConfig and assign_tier_weights take them from the model
    assert _constant_homes(1.5) == ["model"]
    assert _constant_homes("unspecified") == ["model"]


def test_asset_index_codes_have_one_home():
    # every entry point indexes candidates and resolves ids through the same two helpers
    assert _constant_homes("unknown_asset_id") == ["cascade._members"]
    assert _constant_homes("bad_candidate") == ["cascade._asset_map"]


def _functions() -> list[tuple[str, ast.FunctionDef]]:
    """(``module.function``, its node) of every function in src, nested ones too."""
    return [(f"{path.stem}.{func.name}", func) for path in (SRC / "satfeas").glob("*.py")
            for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(func, ast.FunctionDef)]


def _callers(names: set[str]) -> list[str]:
    """Each function in src that calls one of ``names`` by name."""
    return sorted({where for where, func in _functions() for node in ast.walk(func)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id in names})


def test_the_asset_index_is_built_by_its_check_alone():
    # every entry point takes an _AssetIndex as checked, so only the check may build one
    assert _callers({"_AssetIndex"}) == ["cascade._asset_map"]


def test_value_rule_codes_have_one_home():
    # every flag field and every normalized weight vector is checked by one model helper
    assert _constant_homes("bad_flag") == ["model.check_flag"]
    assert _constant_homes("weights_not_normalized") == ["model.check_normalized"]


def test_interval_words_only_in_the_domain_table():
    # a check names its interval by a key of model._DOMAINS and takes its words from there
    homes = _constant_homes(lambda constant: isinstance(constant, str)
                            and "must lie in" in constant)
    assert homes == ["model._DOMAINS"]


def test_row_errors_have_one_home():
    # a loader words every error met on a row through one helper, and a row of the wrong
    # width through another
    homes = _constant_homes(lambda constant: isinstance(constant, str)
                            and constant.endswith(" row "))
    assert homes == ["io._cells", "io._row_error"]


def test_enum_spellings_read_only_in_io():
    # the loaders' value maps are the one rule of how a tier or exclusion cell is spelled
    readers = sorted({path.stem for path in (SRC / "satfeas").glob("*.py")
                      for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                      if isinstance(node, ast.Attribute) and node.attr == "_value2member_map_"})
    assert readers == ["io"]


def test_no_module_imports_a_name_it_never_uses():
    # no linter is installed: a deleted helper must not leave its import behind
    # (__init__ is left out: it imports in order to re-export)
    unused = []
    for path in sorted((SRC / "satfeas").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{bound}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for bound in ((a.asname or a.name).split(".")[0] for a in node.names)
                   if bound not in used]
    assert unused == []


#: Calls that open, read or write a file.
FILE_CALLS = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}


def _touches_files(node) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] in ("json", "csv") for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.level == 0 and (node.module or "").split(".")[0] in ("json", "csv")
    if isinstance(node, ast.Call):
        f = node.func
        return (isinstance(f, ast.Name) and f.id == "open") or (
            isinstance(f, ast.Attribute) and f.attr in FILE_CALLS)
    return False


def test_only_io_touches_files():
    # io is the one home of file formats: every other module gets the objects it builds
    homes = sorted({path.name for path in (SRC / "satfeas").glob("*.py")
                    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                    if _touches_files(node)})
    assert homes == ["io.py"]


def test_no_indented_json_dumps_in_the_source():
    # json.dumps(indent=...) runs the pure-Python encoder; io.json_bytes keeps the C one
    calls = [f"{path.name}:{node.lineno}" for path in (SRC / "satfeas").glob("*.py")
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "dumps" and any(k.arg == "indent" for k in node.keywords)]
    assert calls == []
