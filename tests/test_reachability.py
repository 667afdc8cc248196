"""Guard against test-only API: every top-level function and class in
`src/roomflow` must be reachable from the `roomflow` command (`cli.main`),
the only entry point, every method, property and classmethod must be named
by the package outside its own body, every parameter must be read, and
every dataclass field must be read as an attribute. A name that only tests
reach is code the program does not need."""

import ast
from pathlib import Path

import roomflow

SRC = Path(roomflow.__file__).resolve().parent
ENTRY_POINTS = {("cli", "main")}


def _references(tree, module):
    """Top-level name -> the (module, name) pairs its statement refers to,
    plus the set of top-level functions and classes. The package imports
    its own modules only relatively (`from .m import x`, `from . import
    m`), so those are the imports resolved."""
    imported, modules = {}, {}  # local name -> (module, name) / module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module:
                    imported[local] = (node.module, alias.name)
                else:
                    modules[local] = alias.name
    refs, defs = {}, set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
            defs.add((module, stmt.name))
        elif isinstance(stmt, ast.Assign):
            names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        else:
            continue
        found = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                found.add(imported.get(node.id, (module, node.id)))
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                found.add((modules[node.value.id], node.attr))
        for name in names:
            refs[(module, name)] = found
    return refs, defs


def _graph(sources):
    """(references, definitions) over all modules of `sources` (module
    name -> code)."""
    refs, defs = {}, set()
    for module, code in sources.items():
        r, d = _references(ast.parse(code), module)
        refs.update(r)
        defs |= d
    return refs, defs


def unreachable(sources, roots):
    """Top-level functions and classes of `sources` that no chain of
    references from `roots` reaches."""
    refs, defs = _graph(sources)
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(refs.get(name, ()))
    return defs - seen


def test_every_definition_is_reachable_from_an_entry_point():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert ENTRY_POINTS <= _graph(sources)[1]  # the allowlist is not stale
    assert sorted(unreachable(sources, ENTRY_POINTS)) == []


def test_guard_flags_test_only_chains():
    sources = {
        "cli": ("from . import engine\n"
                "from .engine import run as go\n"
                "TABLE = {'x': engine.used}\n"
                "def main():\n    return go(TABLE)\n"),
        "engine": ("def run(t):\n    return Ledger()\n"
                   "class Ledger:\n    pass\n"
                   "def used():\n    pass\n"
                   "def orphan():\n    return helper()\n"
                   "def helper():\n    pass\n"),
    }
    assert unreachable(sources, {("cli", "main")}) == {
        ("engine", "orphan"), ("engine", "helper")}


def unreferenced_members(sources):
    """(module, class, name) of each non-dunder method, property and
    classmethod of `sources` that no attribute reference outside its own
    body names. `Cls.name` names the member of the class `Cls` (defined in
    the module or imported from the package); any other `expr.name` names
    `name` on every class."""
    trees = {m: ast.parse(code) for m, code in sources.items()}
    spans = {}  # (module, class) -> {member: (first line, last line)}
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                spans[(module, stmt.name)] = {
                    f.name: (f.lineno, f.end_lineno) for f in stmt.body
                    if isinstance(f, ast.FunctionDef)
                    and not (f.name.startswith("__")
                             and f.name.endswith("__"))}
    named = set()
    for module, tree in trees.items():
        classes = {c: (m, c) for m, c in spans if m == module}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                classes.update(
                    (a.asname or a.name, (node.module, a.name))
                    for a in node.names if (node.module, a.name) in spans)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            owners = ([classes[node.value.id]]
                      if isinstance(node.value, ast.Name)
                      and node.value.id in classes else spans)
            for owner in owners:
                lo, hi = spans[owner].get(node.attr, (0, -1))
                if hi >= lo and not (owner[0] == module
                                     and lo <= node.lineno <= hi):
                    named.add((*owner, node.attr))
    return {(m, c, n) for (m, c), members in spans.items()
            for n in members} - named


def test_every_member_is_named_outside_its_body():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert sorted(unreferenced_members(sources)) == []


def test_member_guard_resolves_class_names():
    sources = {
        "flows": ("class Curve:\n"
                  "    def __len__(self):\n        return 0\n"
                  "    def used(self):\n        return 1\n"
                  "    def loop(self):\n        return self.loop()\n"
                  "    @classmethod\n"
                  "    def make(cls):\n        return cls()\n"
                  "    @property\n"
                  "    def span(self):\n        return 1\n"),
        "cli": ("from .flows import Curve\n"
                "class Other:\n"
                "    def make(self):\n        pass\n"
                "def main(c):\n"
                "    return Curve.make(), c.used(), c.span\n"),
    }
    assert unreferenced_members(sources) == {
        ("flows", "Curve", "loop"), ("cli", "Other", "make")}


def unread_parameters(sources):
    """(module, function, parameter) of each parameter of a function or
    lambda in `sources` that its body never reads; self, cls and names
    starting with `_` are exempt. A parameter nothing reads is a knob with
    no effect."""
    out = set()
    for module, code in sources.items():
        for node in ast.walk(ast.parse(code)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args,
                                      *args.kwonlyargs, args.vararg,
                                      args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)}
            out |= {(module, getattr(node, "name", "<lambda>"), p)
                    for p in params if p not in read
                    and p not in ("self", "cls") and not p.startswith("_")}
    return out


def test_every_parameter_is_read():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert sorted(unread_parameters(sources)) == []


def test_guard_flags_unread_parameters():
    sources = {
        "flows": ("def sample(profiles, k, rng, _spare=0, *extra):\n"
                  "    def draw(n):\n        return rng.random(n)\n"
                  "    return draw(profiles.n)\n"
                  "class Law:\n"
                  "    def size(self, cls, n=1):\n        return 1\n"
                  "PICK = lambda a, b: a\n"),
        "engine": ("def run(days, **options):\n"
                   "    days = [d for d in days]\n"
                   "    return options\n"),
    }
    assert unread_parameters(sources) == {
        ("flows", "sample", "k"), ("flows", "sample", "extra"),
        ("flows", "size", "n"), ("flows", "<lambda>", "b")}


def unread_fields(sources):
    """(module, class, field) of each dataclass field in `sources` that no
    code there loads as an attribute. A string constant that spells the
    field counts as a load, since getattr can read a field by a name held
    in a string. A field nothing reads is state kept for no one."""
    fields, loaded = set(), set()
    for module, code in sources.items():
        for node in ast.walk(ast.parse(code)):
            if isinstance(node, ast.ClassDef) and any(
                    ast.unparse(d).split("(")[0].split(".")[-1]
                    == "dataclass" for d in node.decorator_list):
                fields |= {(module, node.name, stmt.target.id)
                           for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign)
                           and isinstance(stmt.target, ast.Name)}
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                loaded.add(node.attr)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                loaded.add(node.value)
    return {f for f in fields if f[2] not in loaded}


def test_every_dataclass_field_is_read():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert sorted(unread_fields(sources)) == []


def test_guard_flags_unread_fields():
    sources = {
        "engine": ("import dataclasses\n"
                   "from dataclasses import dataclass\n"
                   "@dataclass\n"
                   "class Day:\n"
                   "    loss: float\n    idle: int\n    spare: int = 0\n"
                   "@dataclasses.dataclass(frozen=True)\n"
                   "class Report:\n    total: float\n    named: float\n"
                   "class Plain:\n    unread: int = 0\n"
                   "def run(day, report):\n"
                   "    day.idle = 3\n"
                   "    return day.loss, getattr(report, 'named')\n"),
    }
    assert unread_fields(sources) == {
        ("engine", "Day", "idle"), ("engine", "Day", "spare"),
        ("engine", "Report", "total")}


STAGE_TWO_RULES = {"StageTwoState", "expected_shownups",
                   "dass2_decide_walkin", "heuristic2_decide_walkin"}


def test_reference_keeps_its_own_stage_two_rules():
    # the reference replays Stage II with its own copies of the check-in
    # rules; taking them from the package would compare the engine's rule
    # with itself
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text())
    aliases, taken = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names
                        if a.name.split(".")[0] == "roomflow"}
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "roomflow"):
            taken |= {a.name for a in node.names}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            taken.add(node.attr)
    assert STAGE_TWO_RULES.isdisjoint(taken)
    assert STAGE_TWO_RULES <= {n.name for n in tree.body
                               if isinstance(n, (ast.FunctionDef,
                                                 ast.ClassDef))}
