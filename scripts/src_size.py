"""Print the size of the package: `.py` lines and independently settable values.

Lines are counted over every `.py` file under `src/`, in total and per module
(path relative to SRC_DIR), so a change can say where its lines went. A
settable value is a function parameter with a default or a dataclass field
with a default, found by walking each file's syntax tree; both are values a
caller may set or leave.

Usage: python scripts/src_size.py [SRC_DIR]    (default: src/ of this checkout)
       python scripts/src_size.py BASE_SRC SRC (each module's lines in both trees
                                                and the difference, then both totals)
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def settable_values(tree: ast.AST) -> tuple[int, int]:
    """(defaulted parameters, defaulted dataclass fields) in one module."""
    params = fields = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params += len(node.args.defaults)
            params += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields += sum(isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                          for stmt in node.body)
    return params, fields


def measure(root: Path):
    """({module: lines}, total lines, defaulted parameters, defaulted dataclass fields)."""
    per_module, params, fields = {}, 0, 0
    for path in sorted(root.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        per_module[path.relative_to(root)] = len(text.splitlines())
        p, f = settable_values(ast.parse(text, filename=str(path)))
        params += p
        fields += f
    return per_module, sum(per_module.values()), params, fields


def compare(base: Path, src: Path) -> None:
    """Print each module's lines in `base` and `src` and the difference, then the totals."""
    old, new = measure(base), measure(src)
    print(f"{'base':>5} {'src':>5} {'diff':>5} module")
    for module in sorted(old[0].keys() | new[0].keys()):
        a, b = old[0].get(module, 0), new[0].get(module, 0)
        print(f"{a:5d} {b:5d} {b - a:+5d} {module}")
    print(f"py_lines {old[1]} -> {new[1]} ({new[1] - old[1]:+d})")
    print(f"settable_values {old[2] + old[3]} -> {new[2] + new[3]} "
          f"(defaulted parameters {old[2]} -> {new[2]}, "
          f"defaulted dataclass fields {old[3]} -> {new[3]})")


def main(argv) -> int:
    if len(argv) == 3:
        compare(Path(argv[1]), Path(argv[2]))
        return 0
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    per_module, lines, params, fields = measure(root)
    print(f"py_lines {lines}")
    for module, count in per_module.items():
        print(f"  {count:5d} {module}")
    print(f"settable_values {params + fields} "
          f"(defaulted parameters {params}, defaulted dataclass fields {fields})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
