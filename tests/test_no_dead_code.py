"""Every module-level function, class and UPPER_CASE constant of the
package, and every method, is named somewhere besides its own definition: in
the package, the tests or the benchmark. A name that appears nowhere else is
code no caller runs. Every parameter of every function of the package is
read in that function's body."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trustgate"

# hooks the HTTP request reader calls by name: "do_" and the request's method
HANDLER_HOOKS = {"do_GET", "do_POST"}

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
    and the package root aside: a name that is only re-exported is not
    used."""
    skipped = {Path(__file__).resolve(), (PACKAGE / "__init__.py").resolve()}
    words = Counter()
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            if path.resolve() not in skipped:
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


def _unread_parameters():
    """(module, function, parameter) for each parameter of a function or
    method, nested ones too, that its body never reads, `self` and `cls`
    aside; a read in a nested function counts."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name in HANDLER_HOOKS:
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            read = {
                n.id
                for statement in node.body
                for n in ast.walk(statement)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            for param in params:
                if param.arg not in ("self", "cls") and param.arg not in read:
                    yield path.name, node.name, param.arg


def test_every_parameter_is_read():
    unread = [f"{module}: {name}({param})" for module, name, param in _unread_parameters()]
    assert not unread, "parameters never read:\n" + "\n".join(unread)
