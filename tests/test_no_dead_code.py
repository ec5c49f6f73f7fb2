"""Every module-level function and class of the package, and every method,
is named somewhere besides its own definition: in the package, the tests or
the benchmark. A name that appears nowhere else is code no caller runs."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trustgate"

# hooks that BaseHTTPRequestHandler calls by name
HANDLER_HOOKS = {"do_GET", "do_POST", "log_message", "send_error"}


def _definitions():
    """(module, qualified name, name) for each module-level function and
    class, and each method defined in a module-level class."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield path.name, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield path.name, f"{node.name}.{member.name}", member.name


def test_every_definition_is_named_elsewhere():
    words = Counter()
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            if path.resolve() != Path(__file__).resolve():
                words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    definitions = list(_definitions())
    defined = Counter(name for _, _, name in definitions)
    unused = [
        f"{module}: {qualified}"
        for module, qualified, name in definitions
        if not (name.startswith("__") and name.endswith("__"))
        and name not in HANDLER_HOOKS
        and words[name] <= defined[name]
    ]
    assert not unused, "defined but named nowhere else:\n" + "\n".join(unused)
