"""The traced benchmark (``perfbench/layers.py``) wraps functions by name in
every module that binds them.  A refactor that renames such a function or
drops a module's binding would break ``perfbench/run.py --trace 1``; these
checks catch it in the unit tests."""

import importlib
import importlib.util
from pathlib import Path

from netdecomp import graphs

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
