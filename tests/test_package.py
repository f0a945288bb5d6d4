"""Package surface: stdlib-only imports and an export list that resolves."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import satfeas

SRC = Path(__file__).resolve().parent.parent / "src"

#: Prints the top-level modules that importing the CLI loads, one per line.
_IMPORT_CLI = """
import sys
before = set(sys.modules)
import satfeas.cli
print("\\n".join(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_cli_imports_only_the_standard_library():
    # a fresh interpreter: this test process has pytest and hypothesis loaded
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    loaded = subprocess.run([sys.executable, "-c", _IMPORT_CLI], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    assert "satfeas" in loaded
    assert [m for m in loaded if m != "satfeas" and m not in sys.stdlib_module_names] == []


#: The public surface: adding or removing an export is an edit to this list.
PUBLIC_NAMES = [
    "Asset", "CascadeInput", "DerivedBounds", "EconParams", "EntropyParams",
    "ExclusionCategory", "FeasibilityParams", "FeasibilityReport", "ImpactParams", "LAYERS",
    "LayerVerdict", "RebalanceEvent", "RebalanceProposal", "ReplayStats", "RunConfig",
    "SatelliteDesign", "StructuralParams", "TierClass", "UNBOUNDED", "Unbounded",
    "ValidationError", "alpha_max_structural", "assign_tier_weights", "breadth_bound_econ",
    "breadth_bound_entropy", "compute_bounds", "config_from_dict", "effective_alpha",
    "eligibility_filter", "entropy_increment_approx", "entropy_increment_exact",
    "filter_rebalance", "impact_cost", "load_config", "max_weight_impact",
    "max_weight_participation", "min_weight_change", "replay", "replay_steps", "run_cascade",
    "weight_entropy",
]


def test_public_surface_is_pinned():
    assert sorted(satfeas.__all__) == PUBLIC_NAMES


def test_every_exported_name_resolves():
    assert len(set(satfeas.__all__)) == len(satfeas.__all__)
    assert [name for name in satfeas.__all__ if not hasattr(satfeas, name)] == []


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


def test_asset_index_codes_have_one_home():
    # every entry point indexes candidates and resolves ids through the same two helpers
    assert _constant_homes("unknown_asset_id") == ["cascade._members"]
    assert _constant_homes("bad_candidate") == ["cascade._asset_map"]


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
    # a loader words every error met on a row through one helper; the reader words a bad row
    homes = _constant_homes(lambda constant: isinstance(constant, str)
                            and constant.endswith(" row "))
    assert homes == ["io._read_rows", "io._row_error"]


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
