"""The traced benchmark (``perfbench/layers.py``) wraps functions by name in
every module that binds them.  A refactor that renames such a function or
drops a module's binding would break ``perfbench/run.py --trace 1``; these
checks catch it in the unit tests, and keep every other module-level
import of ``src/netdecomp`` in use."""

import ast
import importlib
import importlib.util
from contextlib import ExitStack
from fractions import Fraction
from pathlib import Path
from unittest.mock import Mock, patch

from netdecomp import clustering, covers, graphs

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.WRAPPED


def test_every_wrapped_binding_resolves():
    for _layer, name, consumers, _leaf in _wrapped():
        bound = []
        for consumer in consumers:
            mod = importlib.import_module(f"netdecomp.{consumer}")
            fn = getattr(mod, name, None)
            assert callable(fn), f"netdecomp.{consumer} no longer binds {name}"
            bound.append(fn)
        assert all(fn is bound[0] for fn in bound), f"{name} bound to different objects"
    assert callable(graphs.Graph.adjacency_csr)


def test_bfs_kernel_returns_a_full_distance_list():
    # the tracer's counter reads len(out) and out.count(-1)
    g = graphs.generate_graph("path", {"n": 6}, 0)
    for kwargs in ({}, {"cap": 1}, {"targets": [0]}, {"reached": []},
                   {"parent": {}}, {"within": {1, 2}}):
        out = graphs._bfs_idx(g, [0], **kwargs)
        assert isinstance(out, list) and len(out) == g.n
        assert out[0] == 0


def _unused_imports(source: str) -> set[str]:
    """Names bound by the module-level imports of ``source`` that it never
    reads and does not list in ``__all__``."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    }
    return bound - read - exported


def test_no_dead_imports():
    # a binding the tracer wraps in a module is used there even if unread
    traced = {}
    for _layer, name, consumers, _leaf in _wrapped():
        for consumer in consumers:
            traced.setdefault(consumer, set()).add(name)
    src = Path(graphs.__file__).resolve().parent
    dead = {
        f"{path.stem}.{name}"
        for path in src.glob("*.py")
        for name in _unused_imports(path.read_text()) - traced.get(path.stem, set())
    }
    assert not dead, f"unused imports: {sorted(dead)}"


# code in src/ that nothing in src/ or perfbench/ runs, and why it stays
UNREFERENCED_ALLOWED = {
    "clustering.validate_ruling_set": "public validator of the ruling-set definition",
    "graphs.Graph.relabeled": "the id remap that acceptance criterion 03 applies",
}


def _references(source: str) -> set[str]:
    """Every name and attribute the code of ``source`` reads or writes."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(ast.parse(source))
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _src_and_perfbench():
    src = Path(graphs.__file__).resolve().parent
    return sorted(src.glob("*.py")), sorted(LAYERS_PY.parent.glob("*.py"))


def _definitions(path: Path):
    """(qualified name, node, is a method) for every module-level function
    and class of ``path`` and every function defined in a class body."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{path.stem}.{node.name}", node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{path.stem}.{node.name}.{item.name}", item, True


def test_src_holds_no_test_only_code():
    # a function, class, method or property of src/ must be run by src/ or
    # perfbench/, be wrapped by the tracer, or be allowed above; references
    # that only the tests need belong in tests/references.py
    src, perfbench = _src_and_perfbench()
    referenced = set()
    for path in [*src, *perfbench]:
        referenced |= _references(path.read_text())
    referenced |= {name for _layer, name, _consumers, _leaf in _wrapped()}
    unreferenced = {
        qualified
        for path in src
        for qualified, node, _method in _definitions(path)
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in referenced
    }
    assert unreferenced == set(UNREFERENCED_ALLOWED), sorted(
        unreferenced ^ set(UNREFERENCED_ALLOWED))


# defaulted parameters of src/ that no call in src/ or perfbench/ passes,
# and why each stays
UNPASSED_ALLOWED = {
    "decompose.decompose(init)": "the tests check the merge contract on initial clusters",
    "clustering.validate_decomposition(check_trees)": "the tests of the separation "
                                                      "and lane checks skip the trees",
    "mis.run_ghaffari(_draws)": "the tests replay explicit draws against the exact round",
    "mis.shatter_check(delta)": "acceptance criterion 08 fits the P2 bound at a set degree",
    "mis.ghaffari_engine(cfg)": "acceptance criterion 11 runs the lanes under a strict budget",
    "carving.carve_step(stream)": "acceptance criterion 04 draws the shifts from one stream",
    "coloring.linial_color(max_degree)": "the tests pass the degree bound explicitly",
    "graphs.Graph.relabeled(id_bits)": "criterion 03's remap widens the id space",
    "cli.main(argv)": "the console script passes none, so sys.argv is read",
}


def _defaulted(node: ast.FunctionDef, method: bool) -> list[tuple[str, int]]:
    """(name, positional index or -1 if keyword-only) of every parameter
    of ``node`` with a default; a method's index leaves out ``self`` or
    ``cls``."""
    args = node.args
    positional = [*args.posonlyargs, *args.args]
    shift = 1 if method else 0
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - shift) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, -1) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def test_every_defaulted_parameter_is_passed():
    # a setting that no caller sets is a constant: a defaulted parameter of
    # src/ must be passed, by position or keyword, by some call in src/ or
    # perfbench/ to a function of its name, or be allowed above
    src, perfbench = _src_and_perfbench()
    passed: dict[str, set] = {}  # callee name -> positions and keywords passed
    for path in [*src, *perfbench]:
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            fn = call.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            got = passed.setdefault(name, set())
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                    k.arg is None for k in call.keywords):
                got.add("*")  # a splat may pass anything
            got.update(range(len(call.args)))
            got.update(k.arg for k in call.keywords)
    unpassed = set()
    for path in src:
        for qualified, node, method in _definitions(path):
            if isinstance(node, ast.ClassDef):
                continue
            # a constructor is called by its class name
            parts = qualified.split(".")
            callee = parts[-2] if node.name == "__init__" else node.name
            got = passed.get(callee, set())
            for arg, index in _defaulted(node, method):
                if "*" not in got and arg not in got and index not in got:
                    unpassed.add(f"{qualified}({arg})")
    assert unpassed == set(UNPASSED_ALLOWED), sorted(
        unpassed ^ set(UNPASSED_ALLOWED))


def test_one_lane_kernel_serves_mu_and_weak_diameters():
    # mu and the weak diameters run on clustering._lane_rounds; with it
    # wrapped in every module that binds it, each entry point must call it,
    # so a second lane BFS cannot come back unnoticed
    kernel = clustering._lane_rounds
    spy = Mock(wraps=kernel)
    src = Path(graphs.__file__).resolve().parent
    modules = [importlib.import_module(f"netdecomp.{path.stem}")
               for path in src.glob("*.py")]
    cycle = [(0, 1), (1, 2), (2, 3), (0, 3)]
    g = graphs.Graph(range(4), cycle, {e: Fraction(i + 1) for i, e in enumerate(cycle)})
    dec = clustering.Decomposition(k=1, clusters=[clustering.Cluster(
        id=0, center=0, members=frozenset(range(4)), tree_edges=frozenset(cycle[:3]))])
    with ExitStack() as stack:
        for mod in modules:
            if getattr(mod, "_lane_rounds", None) is kernel:
                stack.enter_context(patch.object(mod, "_lane_rounds", spy))
        for entry, want in ((lambda: covers.mst_radius(g), 4),
                            (lambda: covers.mst_radius_scipy(g), 4),
                            (lambda: clustering.validate_decomposition(g, dec)
                             .stats["max_weak_diameter"], 2)):
            spy.reset_mock()
            assert entry() == want
            assert spy.called
