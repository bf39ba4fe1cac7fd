"""No module imports a name it never reads.

No linter runs on this repository, so an AST scan stands in for one.  It
covers every `.py` file under `src/bscontrol`, `tests`, `demos` and `tools`,
and skips what is imported on purpose: a package `__init__`'s re-exports,
`from __future__` directives and any import line marked `# noqa`.  A
module-level name imported again, at module level or inside a function,
counts as unused too: the second binding is never needed.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for folder in ("src/bscontrol", "tests", "demos", "tools")
               for path in (ROOT / folder).glob("*.py")
               if path.name != "__init__.py")


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines, tree = source.splitlines(), ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    top, module_names, unused = {id(node) for node in tree.body}, set(), []
    for node in ast.walk(tree):    # breadth first: module level comes first
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                and "# noqa" not in lines[node.lineno - 1]):
            for alias in node.names:
                # `import a.b` binds `a`, but is not a second `import a`
                name = alias.asname or alias.name
                if name in module_names or name.split(".")[0] not in read:
                    unused.append(name)
                if id(node) in top:
                    module_names.add(name)
    return unused


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert _unused_imports(path) == []
