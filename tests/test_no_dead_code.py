"""Every module-level function, class and UPPER_CASE constant of the
package, and every method, is named somewhere besides its own definition: in
the package, the tests or the benchmark. A name that appears nowhere else is
code no caller runs."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trustgate"

# hooks that BaseHTTPRequestHandler calls by name
HANDLER_HOOKS = {"do_GET", "do_POST", "log_message", "send_error"}

CONSTANT_NAME = re.compile(r"_?[A-Z][A-Z0-9_]*")


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


def _constants():
    """(module, name) for each name a module-level statement of the package
    assigns that is spelled in UPPER_CASE, with or without a leading
    underscore."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and CONSTANT_NAME.fullmatch(name.id):
                        yield path.name, name.id


def _words():
    """How often each word appears in src/, tests/ and perfbench/, this file
    aside."""
    words = Counter()
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            if path.resolve() != Path(__file__).resolve():
                words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    return words


def test_every_definition_is_named_elsewhere():
    words = _words()
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


def test_every_constant_is_named_elsewhere():
    words = _words()
    constants = list(_constants())
    assigned = Counter(name for _, name in constants)
    unused = sorted(
        f"{module}: {name}" for module, name in set(constants) if words[name] <= assigned[name]
    )
    assert not unused, "assigned but named nowhere else:\n" + "\n".join(unused)
