"""In-process tracing of digitsquares from outside the package.

Wrappers are installed on the module attributes that each layer's callers
look up at call time, so no file of the package changes. A span records
(id, name, start, end, parent); a layer's self time is its spans' duration
minus the part covered by their child spans. A wrapped generator is timed
only inside next(), so time spent by its consumer is not charged to it.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []
        self._next_id = 0

    def open(self, name: str) -> list:
        parent = self._stack[-1][2] if self._stack else -1
        frame = [name, 0.0, self._next_id, parent]
        self._next_id += 1
        self._stack.append(frame)
        frame.append(perf_counter())
        return frame

    def close(self, frame: list) -> None:
        end = perf_counter()
        name, child_s, sid, parent, start = self._stack.pop()
        assert frame[2] == sid, "spans closed out of order"
        duration = end - start
        self.self_s[name] += duration - child_s
        self.total_s[name] += duration
        if self._stack:
            self._stack[-1][1] += duration
        self.spans.append((sid, name, start, end, parent))

    def call(self, name: str, fn, *args, **kwargs):
        frame = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(frame)

    def iterate(self, name: str, iterator, count: str | None = None):
        """Yield from iterator, timing each next() as a span."""
        try:
            while True:
                frame = self.open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self.close(frame)
                if count:
                    self.counts[count] += 1
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()


def _plain(tracer: Tracer, span: str, count: str | None = None,
           rejects: str | None = None):
    """A wrapper timing each call as a span, and the metric names it feeds."""
    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.call(span, fn, *args, **kwargs)
            if count:
                tracer.counts[count] += 1
            if rejects and not result:
                tracer.counts[rejects] += 1
            return result
        return wrapper
    return wrap, (span, count, rejects)


def _stream(tracer: Tracer, span: str, started: str | None = None,
            items: str | None = None):
    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if started:
                tracer.counts[started] += 1
            return tracer.iterate(span, iter(tracer.call(span, fn, *args, **kwargs)),
                                  items)
        return wrapper
    return wrap, (span, started, items)


# verify functions whose self times and call counts are recorded
VERIFY_FUNCTIONS = ("line_sums", "check_magic", "check_bimagic",
                    "check_pandiagonal", "check_blocks", "entry_properties",
                    "report", "s2_from_multiset")
CLI_COMMANDS = ("cmd_verify", "cmd_generate", "cmd_transform", "cmd_render",
                "cmd_decompose")


def _targets(tracer: Tracer, cli, core, generate, sevenseg, verify):
    """(owner, owner label, attribute, (wrapper, names)) for every boundary.

    The owner is the namespace the caller resolves the name in: the cli
    module imported the core transforms by name, so they are wrapped there.
    """
    out = [
        (generate, "generate", "_layer_stream",
         _stream(tracer, "generate.plane_search", "generate.plane_streams",
                 "generate.planes_yielded")),
        (generate, "generate", "_prefix_distinct_ok",
         _plain(tracer, "generate.distinct_prune", "generate.distinct_checks",
                "generate.distinct_rejects")),
        (generate, "generate", "_reverify", _plain(tracer, "generate.reverify")),
        (generate, "generate", "recompose",
         _plain(tracer, "core.recompose", "core.recompose_calls")),
        (generate, "generate", "gen_square",
         _stream(tracer, "generate.product", items="generate.squares_emitted")),
        (generate, "generate", "bimagic_search",
         _stream(tracer, "generate.construct")),
        (getattr(core, "Square", None), "core.Square", "__post_init__",
         _plain(tracer, "core.square_validate", "core.square_validations")),
        (cli, "cli", "rotate_square", _plain(tracer, "core.transform")),
        (cli, "cli", "mirror_square", _plain(tracer, "core.transform")),
        (cli, "cli", "decompose", _plain(tracer, "core.decompose")),
        (sevenseg, "sevenseg", "render_square", _plain(tracer, "sevenseg.render")),
        (cli, "cli", "parse_document", _plain(tracer, "cli.parse")),
        (getattr(cli, "SquareDocument", None), "cli.SquareDocument", "to_square",
         _plain(tracer, "cli.parse")),
    ]
    out += [(cli, "cli", name, _plain(tracer, "cli.emit")) for name in CLI_COMMANDS]
    out += [(verify, "verify", name,
             _plain(tracer, f"verify.{name}", f"verify.{name}_calls"))
            for name in VERIFY_FUNCTIONS]
    return out


class Installed:
    """Wrappers in place on the package; undo() restores the originals.

    A boundary that a later version of the package no longer has is listed
    in ``missing`` instead of failing the run. ``fed`` holds the span and
    count names of the installed wrappers: a name outside it was not
    measured, which is not the same as measured and zero.
    """

    def __init__(self, tracer: Tracer, modules: dict):
        self.saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.fed: set[str] = set()
        for owner, label, attr, (wrap, names) in _targets(tracer, **modules):
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{label}.{attr}")
                continue
            original = vars(owner)[attr]
            self.saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
            self.fed.update(name for name in names if name)

    def undo(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()
