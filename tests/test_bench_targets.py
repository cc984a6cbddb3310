"""The benchmark's traced run can still find every library function it times.

`bench/run.py --trace 1` wraps each function named in `bench/spans.py`'s
`TARGETS`; a library change that renames or folds one of them (a thin
wrapper such as `delete_y`, say) breaks that run. The module
is read and run from its source, so nothing is written to the bench folder
and `sys.path` is left alone. A target also has to be what the library
calls, or its span reads 0: the certificate kernels are checked for that
by counting calls at every binding, the way the traced run wraps them.
"""

import importlib
import random
import sys
from pathlib import Path

from helpers import random_cover_admitting

from interval6 import coloring, generators, pathfactor, transversal

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_targets():
    namespace = {"__name__": "bench_spans"}
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), namespace)
    return namespace["TARGETS"]


def test_every_library_target_resolves():
    library = [(mod, attr) for mod, attr, _ in load_targets() if mod.startswith("interval6.")]
    assert len(library) >= 20
    missing = [f"{mod}.{attr}" for mod, attr in library if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []


KERNELS = {"build_q", "build_pgraph", "two_color_pgraph", "p3_half_factor", "components"}


def test_certificate_kernels_are_what_the_library_calls(monkeypatch):
    targets = {attr: mod for mod, attr, _ in load_targets() if attr in KERNELS}
    assert set(targets) == KERNELS
    calls = dict.fromkeys(KERNELS, 0)
    holders = [m for name, m in sys.modules.items() if name == "interval6" or name.startswith("interval6.")]
    for attr, modname in targets.items():
        original = getattr(importlib.import_module(modname), attr)

        def counted(*args, _attr=attr, _original=original, **kwargs):
            calls[_attr] += 1
            return _original(*args, **kwargs)

        for mod in holders:
            for key, val in list(vars(mod).items()):
                if val is original:
                    monkeypatch.setattr(mod, key, counted)

    g, factor = generators.subset_graph_6()
    coloring.color_from_factor(g, factor)
    assert calls == {"build_q": 1, "build_pgraph": 1, "two_color_pgraph": 1, "p3_half_factor": 0, "components": 0}

    calls.update(dict.fromkeys(KERNELS, 0))
    assert pathfactor.p7_factor_via_24(random_cover_admitting(3, random.Random(1))) is not None
    assert calls["p3_half_factor"] == 2

    calls.update(dict.fromkeys(KERNELS, 0))
    transversal.find_mixed_transversal(*generators.independent_obstruction(12))
    assert calls["components"] >= 1
