"""Span tracing of quatosc's public functions, from outside the package.

``Tracer`` wraps every public function of every loaded ``quatosc`` module,
at every module attribute that binds it: ``cli``, ``oscillator1d`` and
``multidim`` import functions by name, so wrapping only the defining module
would miss their calls.  Each call records a span (name, start, end, parent
index) in memory.  ``restore()`` puts every original function back.

Run as a script, it is the traced form of ``python -m quatosc``:

    python bench/tracing.py SPANS.json gram --states FILE

runs ``quatosc.cli.main`` on the remaining arguments under the tracer and
writes the spans to SPANS.json.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

PACKAGE = "quatosc"


def _modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
            and name != PACKAGE + ".__main__"]


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.spans: list = []          # (name, start, end, parent); cleared, never replaced
        self._stack: list[int] = []
        modules = _modules()
        wrappers = {}
        for m in modules:
            short = m.__name__.rpartition(".")[2]
            for attr, obj in vars(m).items():
                if (inspect.isfunction(obj) and obj.__module__ == m.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(obj, f"{short}.{attr}")
        self.bindings = [(m, attr, obj, wrappers[obj])
                         for m in modules for attr, obj in list(vars(m).items())
                         if inspect.isfunction(obj) and obj in wrappers]

    def _wrap(self, func, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def install(self) -> None:
        for module, attr, _, wrapper in self.bindings:
            setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original, _ in self.bindings:
            setattr(module, attr, original)

    def take(self) -> list:
        """The spans recorded since the last call, as a new list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def self_times(spans: list) -> dict[str, list]:
    """name -> [calls, self seconds]; self time is a span's length minus the
    length of its direct children, summed over every span of that name."""
    children = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    out: dict[str, list] = {}
    for i, (name, start, end, _) in enumerate(spans):
        entry = out.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - children[i]
    return out


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    import quatosc.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = quatosc.cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.restore()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.take(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
