"""Spans around calls into mdop's layers, recorded from outside the package.

The tracer replaces each public function of the traced modules by a
wrapper at module-attribute level, in the defining module and in every
mdop module that imported it by name.  Calls made through those
attributes, including calls between functions of one module, record a
span: name, start, end and the index of the enclosing span.  Methods of
Poly and the element classes stay unwrapped, because a span per
coefficient operation would cost more than the work it measures; their
time counts as self time of the function that called them.

Run as a script, the module traces one command-line call:

    python bench/tracer.py SPANS_DIR -- bracket --n 1 D t

runs ``mdop.cli.main`` on the arguments after ``--`` and writes the spans
to SPANS_DIR/<pid>.json.gz.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import os
import sys
import time
from array import array

LAYERS = ("verify", "algebra", "reps", "expr")


class Tracer:
    """In-memory span store; spans are columns of typed arrays."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self._stack = [-1]

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        name_of, start, end, parent = self.name_of, self.start, self.end, self.parent
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(name_id)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self, layers=LAYERS):
        """Wrap the public functions of mdop.<layer>; returns an undo callable."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "mdop" or name.startswith("mdop.")
        }
        replaced: dict[int, object] = {}
        for layer in layers:
            mod = modules[f"mdop.{layer}"]
            for attr, fn in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                ):
                    replaced[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
        undo = []
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, value))

        def uninstall():
            for mod, attr, value in undo:
                setattr(mod, attr, value)

        return uninstall

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "name": self.name_of.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
        }



def write(spans: dict, path) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(spans, fh, separators=(",", ":"))


def read(path) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def self_times(spans: dict) -> dict[str, float]:
    """Seconds of self time per layer: span durations minus direct children.

    Calls run on one thread, so the children of a span are nested inside
    it and never overlap; the part of a span they cover is the sum of
    their durations.
    """
    starts, ends, parents = spans["start"], spans["end"], spans["parent"]
    dur = [e - s for s, e in zip(starts, ends)]
    own = list(dur)
    for idx, par in enumerate(parents):
        if par >= 0:
            own[par] -= dur[idx]
    layer_of = [name.split(".", 1)[0] for name in spans["names"]]
    totals = dict.fromkeys(LAYERS + ("cli",), 0)
    for name_id, ns in zip(spans["name"], own):
        layer = layer_of[name_id]
        totals[layer] = totals.get(layer, 0) + ns
    return {layer: ns / 1e9 for layer, ns in totals.items()}


def merge(parts: list[dict]) -> dict:
    """Concatenate span sets that share no spans, such as one per process."""
    names: list[str] = []
    index: dict[str, int] = {}
    out = {"names": names, "name": [], "start": [], "end": [], "parent": []}
    for part in parts:
        base = len(out["start"])
        for name_id in part["name"]:
            name = part["names"][name_id]
            if name not in index:
                index[name] = len(names)
                names.append(name)
            out["name"].append(index[name])
        out["start"].extend(part["start"])
        out["end"].extend(part["end"])
        out["parent"].extend(p + base if p >= 0 else -1 for p in part["parent"])
    return out


def _trace_cli(argv: list[str]) -> int:
    spans_dir, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_DIR -- CLI_ARGS...")
    import mdop.cli

    tracer = Tracer()
    main = tracer.wrap("cli.main", mdop.cli.main)
    tracer.install(("algebra", "reps", "expr"))
    try:
        code = main(cli_args)
    finally:
        write(tracer.to_json(), os.path.join(spans_dir, f"{os.getpid()}.json.gz"))
    return code


if __name__ == "__main__":
    sys.exit(_trace_cli(sys.argv[1:]))
