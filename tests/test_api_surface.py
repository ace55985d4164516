"""Every defaulted parameter of a ``specres`` function has a caller that sets it.

A defaulted parameter that no call in ``src/specres``, ``tests`` or
``bench`` sets is a configuration that nothing runs: its value belongs in
the function body, as a literal or a named module constant.  The scan is
by name, over the abstract syntax trees only (nothing is imported):

* a call sets a parameter when it passes it by keyword, passes a
  ``**mapping`` (which may hold any keyword), or passes enough positional
  arguments to reach it (a ``*sequence`` reaches every position); it sets
  a ``**`` parameter when it passes a keyword the function does not name;
* a method's positions count ``self``, so ``obj.m(a)`` reaches the second
  parameter of ``def m(self, a, b=...)``;
* ``Cls(...)`` is a call of ``Cls.__init__``.

A second check imports every module and resolves each name of its
``__all__``, so a removed function cannot stay exported.

Run as a script, ``python tests/test_api_surface.py [ROOT]`` prints the
findings for the tree under ROOT (default: this repository), then the
allowed ones with their reasons.
"""

from __future__ import annotations

import ast
import importlib
import math
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: (module, None) for a whole module, or (module, function, parameter) -> reason
ALLOWED = {
    ("families", None):
        "the builders' parameters define the example models",
    ("subspaces", "ac_certificate", "reg"):
        "r(H) of the dense class u = r(H)(Id - Pi_p) C w, which the continuum "
        "decomposition certificate will pass",
}


def _defaulted(args):
    """Names of the parameters of ``args`` that carry a default, and the
    ``**`` parameter, which defaults to no keywords."""
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return names + ([args.kwarg.arg] if args.kwarg else [])


def _definitions(package):
    """(module, qualified name, the name calls use, position of each
    parameter, defaulted names, positions a call skips) for every function
    and method of the package, nested functions included.  Calls use the
    class name for ``__init__``; a method call skips ``self``."""
    out = []
    for path in sorted(package.glob("*.py")):
        module = path.stem

        def visit(node, prefix, cls):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".", child.name)
                elif isinstance(child, ast.FunctionDef):
                    args = child.args
                    positions = {a.arg: i for i, a in
                                 enumerate(args.posonlyargs + args.args)}
                    positions.update((a.arg, math.inf) for a in args.kwonlyargs)
                    called_as = cls if child.name == "__init__" and cls else child.name
                    out.append((module, prefix + child.name, called_as, positions,
                                _defaulted(args), 1 if cls else 0))
                    visit(child, prefix + child.name + ".", None)

        visit(ast.parse(path.read_text(), str(path)), "", None)
    return out


def _calls(roots):
    """name -> [(positional count, keywords, has **mapping)] for every call
    ``name(...)`` or ``obj.name(...)`` in the Python files under ``roots``."""
    calls = {}
    for root in roots:
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name is None:
                    continue
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                calls.setdefault(name, []).append((
                    math.inf if starred else len(node.args),
                    {k.arg for k in node.keywords if k.arg is not None},
                    any(k.arg is None for k in node.keywords),
                ))
    return calls


def _sets(call, param, positions, skip):
    """Whether ``call`` sets ``param`` of a function with these positions."""
    npos, kws, mapping = call
    if param not in positions:   # the ** parameter takes the keywords not named
        return mapping or bool(kws - positions.keys())
    return mapping or param in kws or skip + npos > positions[param]


def unset_defaults(root=ROOT):
    """(findings, allowed): "module.function(parameter)" for every
    defaulted parameter of a function in ``root/src/specres`` that no call
    under ``root`` sets, outside and inside ``ALLOWED``, with the ALLOWED
    keys that matched."""
    defs = _definitions(root / "src" / "specres")
    calls = _calls([root / "src" / "specres", root / "tests", root / "bench"])
    findings, allowed = [], {}
    for module, qualname, called_as, positions, defaulted, skip in defs:
        for param in defaulted:
            if any(_sets(call, param, positions, skip) for call in calls.get(called_as, ())):
                continue
            name = f"{module}.{qualname}({param})"
            key = next((k for k in ((module, None), (module, qualname, param)) if k in ALLOWED),
                       None)
            if key is None:
                findings.append(name)
            else:
                allowed[name] = key
    return findings, allowed


def test_every_defaulted_parameter_has_a_caller_that_sets_it():
    findings, allowed = unset_defaults()
    assert findings == []
    # an entry that covers nothing any more goes
    assert set(allowed.values()) == set(ALLOWED)


def test_every_exported_name_resolves():
    # a name removed from a module but left in its __all__ breaks
    # `from specres.<module> import *`
    for path in sorted((ROOT / "src" / "specres").glob("*.py")):
        module = importlib.import_module(f"specres.{path.stem}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], path.stem


def test_the_scan_sees_keyword_positional_and_mapping_calls(tmp_path):
    pkg = tmp_path / "src" / "specres"
    pkg.mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "bench").mkdir()
    (pkg / "mod.py").write_text(
        "def f(a, b=1, c=2, *, d=3, e=4, **kw):\n    pass\n"
        "def g(a=1, **kw):\n    pass\n"
        "class Box:\n"
        "    def __init__(self, a, b=1):\n        pass\n"
        "    def m(self, a=1, b=2):\n        pass\n"
    )
    (tmp_path / "tests" / "test_x.py").write_text(
        "f(0, 1, d=5)\ng(**{})\nBox(0, 2)\nBox(0).m(1)\n"
    )
    findings, allowed = unset_defaults(tmp_path)
    assert findings == ["mod.f(c)", "mod.f(e)", "mod.f(kw)", "mod.Box.m(b)"]
    assert allowed == {}


if __name__ == "__main__":
    findings, allowed = unset_defaults(pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT)
    print("\n".join(findings))
    for name, key in allowed.items():
        print(f"{name}  [allowed: {ALLOWED[key]}]")
