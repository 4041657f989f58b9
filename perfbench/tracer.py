"""Run one slepmoments CLI command with every public package function timed.

    python3 perfbench/tracer.py SPANS.json <slepmoments arguments...>

The package itself carries no instrumentation: this launcher imports it, wraps
each function named in a module's ``__all__`` (and ``LinearModel.predict``),
rebinds the wrappers by identity in every ``slepmoments.*`` namespace so that
aliases such as ``harness._train_on_arrays`` are caught too, then calls
``cli.run``. Spans stay in memory and are written to SPANS.json after the
command has finished; the exit code is the command's own.
"""

import functools
import hashlib
import importlib
import inspect
import json
import sys
import time

MODULES = ("dpss", "imaging", "moments", "classifier", "harness", "synthetic", "cli")
COUNTED = ("imaging.to_polar", "classifier.train_classifier", "dpss.radial_basis")


def _extra(fn, name):
    """Per-call count recorded next to a span: polar samples R*T, training
    epochs, or a (basis parameters, radial grid) key for distinct inputs."""
    if name not in COUNTED:
        return None
    sig = inspect.signature(fn)

    def extra(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        if name == "imaging.to_polar":
            return a["n_radial"] * a["n_angular"]
        if name == "classifier.train_classifier":
            return a["epochs"]
        import numpy as np  # already loaded by the package

        p = a["basis"].params
        grid = np.ascontiguousarray(a["r_grid"], dtype=float).tobytes()
        return f"{p.n_len},{p.half_bandwidth!r},{p.n_seq}:{hashlib.sha1(grid).hexdigest()}"

    return extra


def install(spans: list) -> list[str]:
    """Wrap the package's public functions so each call appends one span
    [name, start, end, parent index, extra] to ``spans``; returns their names."""
    stack: list[int] = []
    names: list[str] = []

    def wrap(fn, name):
        extra = _extra(fn, name)
        names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = [name, t0, t1, parent, extra(args, kwargs) if extra else None]

        return traced

    wrapped = {}
    for short in MODULES:
        mod = importlib.import_module(f"slepmoments.{short}")
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            # generators would only be timed until their first yield
            if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
                wrapped[fn] = wrap(fn, f"{short}.{fn.__name__}")
    for modname, mod in list(sys.modules.items()):
        if modname == "slepmoments" or modname.startswith("slepmoments."):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(mod, attr, wrapped[value])
    model = sys.modules["slepmoments.classifier"].LinearModel
    model.predict = wrap(model.predict, "classifier.LinearModel.predict")
    return names


def main(argv) -> int:
    out, cli_args = argv[0], argv[1:]
    import slepmoments.cli

    spans: list = []
    names = install(spans)
    code = slepmoments.cli.run(cli_args)
    doc = {"names": names, "spans": spans}
    with open(out, "w") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
