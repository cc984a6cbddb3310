"""The benchmark's traced run can still find every library function it times.

`bench/run.py --trace 1` wraps each function named in `bench/spans.py`'s
`TARGETS`; a library change that renames or folds one of them (a thin
wrapper such as `build_q` or `delete_y`, say) breaks that run. The module
is read and run from its source, so nothing is written to the bench folder
and `sys.path` is left alone.
"""

import importlib
from pathlib import Path

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
