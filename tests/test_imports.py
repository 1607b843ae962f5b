"""Every import of a gspin module is at top level and used by that module, the
package exports exactly the names it imports, no gspin module uses
floating point, and only `exact.py` knows how a `GaussRat` and a `Mat` are
stored."""

import ast
import importlib
from pathlib import Path

import pytest

import gspin
from gspin.exact import Mat

PACKAGE = sorted((Path(__file__).resolve().parent.parent / "src" / "gspin").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def _unused_imports(source):
    """(line, name) for each name a top-level import binds and the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_top_level_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = "import json\nimport os.path\nfrom x import a as b, c\nprint(os.sep, c)\n"
    assert _unused_imports(source) == [(1, "json"), (3, "b")]


def _floating_point(source):
    """(line, text) for each float or complex constant and each use of the
    names `float` and `complex`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            found.append((node.lineno, node.id))
    return sorted(found)


@pytest.mark.parametrize("path", PACKAGE, ids=[p.name for p in PACKAGE])
def test_no_floating_point(path):
    assert _floating_point(path.read_text(encoding="utf-8")) == []


def test_floating_point_is_reported():
    source = ("x = 1.5\ny = 2j + 3\nz = float(x) + complex(1)\nw = 1e3 if x else -0.0\n"
              "def f(a: float) -> int:\n    return int(a)\n")
    assert _floating_point(source) == [(1, "1.5"), (2, "2j"), (3, "complex"), (3, "float"),
                                       (4, "0.0"), (4, "1000.0"), (5, "float")]


# the attributes that spell out how a GaussRat is stored: its unchecked
# constructor and the parts of its Fractions
SCALAR_FORMAT = ("_fast", "numerator", "denominator")


def _scalar_format_reads(source):
    """(line, attribute) for each use of an attribute in SCALAR_FORMAT."""
    return sorted((node.lineno, node.attr) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in SCALAR_FORMAT)


NOT_EXACT = [p for p in PACKAGE if p.name != "exact.py"]


@pytest.mark.parametrize("path", NOT_EXACT, ids=[p.name for p in NOT_EXACT])
def test_only_exact_reads_the_scalar_format(path):
    # other modules convert through exact._numerators and exact._over
    assert _scalar_format_reads(path.read_text(encoding="utf-8")) == []


def test_scalar_format_read_is_reported():
    source = ("x = GaussRat._fast(a, b)\ny = q.re.denominator + f(q).im.numerator\n"
              "numerator = denominator = x.re\n")
    assert _scalar_format_reads(source) == [(1, "_fast"), (2, "denominator"),
                                            (2, "numerator")]


def _matrix_format_reads(source):
    """(line, name) for each read of an attribute `_nz`, the stored nonzero
    pattern of a `Mat`, and each use of `Mat._raw` or of an attribute
    `_pattern`, the dense form's unchecked constructor and lazy pattern."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Attribute):
            continue
        if node.attr in ("_nz", "_pattern"):
            found.append((node.lineno, node.attr))
        elif node.attr == "_raw" and isinstance(node.value, ast.Name) and node.value.id == "Mat":
            found.append((node.lineno, "Mat._raw"))
    return sorted(found)


@pytest.mark.parametrize("path", NOT_EXACT, ids=[p.name for p in NOT_EXACT])
def test_only_exact_reads_the_matrix_format(path):
    # other modules build matrices through Mat._sparse and read them through
    # Mat's methods
    assert _matrix_format_reads(path.read_text(encoding="utf-8")) == []


def test_matrix_keeps_one_stored_form():
    reads = _matrix_format_reads((PACKAGE[0].parent / "exact.py").read_text(encoding="utf-8"))
    assert {name for _, name in reads} == {"_nz"}
    assert Mat.__slots__ == ("nrows", "ncols", "_nz")
    assert not hasattr(Mat, "_raw") and not hasattr(Mat, "_pattern")


def test_matrix_format_read_is_reported():
    source = ("a = m._nz[0]\nb = Mat._raw(rows)\nc = m._pattern()\n"
              "d = CliffordElement._raw(s, t)\n_nz = _raw = 1\n")
    assert _matrix_format_reads(source) == [(1, "_nz"), (2, "Mat._raw"), (3, "_pattern")]


def _function_level_imports(source):
    """(line, module) for each import statement inside a function body."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.Import):
                    found.add((node.lineno, node.names[0].name))
                elif isinstance(node, ast.ImportFrom):
                    found.add((node.lineno, "." * node.level + (node.module or "")))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_function_level_imports(path):
    assert _function_level_imports(path.read_text(encoding="utf-8")) == []


def test_function_level_import_is_reported():
    source = ("import json\n"
              "def f():\n    from .rootdata import coords_of\n    return coords_of\n"
              "class C:\n    def g(self):\n        def h():\n            import os\n"
              "        return h\n")
    assert _function_level_imports(source) == [(3, ".rootdata"), (8, "os")]


def test_all_matches_package_imports():
    tree = ast.parse(Path(gspin.__file__).read_text(encoding="utf-8"))
    imported = {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for a in node.names}
    assert len(gspin.__all__) == len(set(gspin.__all__))
    assert set(gspin.__all__) == imported | {"__version__"}
    assert all(hasattr(gspin, name) for name in gspin.__all__)


def test_memo_caches_are_only_those_that_save_real_work():
    """The module-level caches of gspin: the standard split alone.  Anything
    cheaper to rebuild than to look up does not get one; the Clifford
    product computes e_S e_g in closed form and the pairing Gram matrix
    is one signed complement per row, so neither keeps a memo."""
    found = set()
    for module in [gspin] + [importlib.import_module(f"gspin.{p.stem}") for p in MODULES]:
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                found.add(f"{obj.__module__}.{obj.__qualname__}")
    assert found == {"gspin.clifford.std_split"}
