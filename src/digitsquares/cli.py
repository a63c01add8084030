"""Command line front end.

Squares travel as JSON documents:

    {"order": 3, "width": 4, "alphabet": "012", "rows": [["1221", ...], ...]}

Cells are always strings so that leading zeros survive serialisation. A CSV
variant is accepted on input only: a first line "# <order>,<width>" followed
by one CSV record per row (quote cells to keep spreadsheet tools from eating
leading zeros). Reading checks the document's shape: keys, order, width,
alphabet, rows of order cells; Square checks the cells, as for any square.

Exit codes: 0 success, 1 a requested property does not hold (or a transform
hit a digit with no image), 2 bad input or usage, 3 search exhausted or out
of budget with nothing found.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
import sys
from typing import Iterable, Iterator, TextIO

# a call imports only what its subcommand runs: generate, sevenseg, verify,
# csv and json are imported inside the functions that use them
from .core import (SUM_PROPERTIES, Alphabet, BadBlockSize, BudgetExhausted,
                   Grid, InvalidState, ShapeMismatch, Square, Unsatisfiable,
                   UnmappableDigit, _common, _lines, _quote, _Record,
                   _word_text, decompose, is_digit_string, mirror_square,
                   rotate_square)

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_USAGE = 2
EXIT_SEARCH = 3


class DocumentError(ValueError):
    """Anything wrong with an input document; the message says what and where."""


class SquareDocument(_Record):
    """A document of checked shape; ``to_square`` checks the declared width,
    which Square cannot know, on cell (0, 0) and leaves the cells to Square."""

    width: int
    rows: list[list[str]]
    alphabet: Alphabet | None = None

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SquareDocument":
        for key in ("order", "width", "rows"):
            if key not in obj:
                raise DocumentError(f"missing key {key!r}")
        order, width, rows = obj["order"], obj["width"], obj["rows"]
        for key, value in (("order", order), ("width", width)):
            # bool is an int subclass, so true would read as 1
            if (not isinstance(value, int) or isinstance(value, bool)
                    or value < 1):
                raise DocumentError(
                    f"{key} must be a positive integer, got {_quote(value)}")
        alphabet = obj.get("alphabet")
        if alphabet is not None:
            alphabet = Alphabet.from_string(alphabet)
        if not isinstance(rows, list) or len(rows) != order:
            raise DocumentError(f"rows must be a list of {_quote(order)} rows")
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != order:
                raise DocumentError(f"row {i} must be a list of {order} cells")
        return cls(width=width, rows=rows, alphabet=alphabet)

    def to_square(self) -> Square:
        first = self.rows[0][0]
        if is_digit_string(first) and len(first) != self.width:
            raise DocumentError(f"cell (0, 0) is {len(first)} digits wide, "
                                f"expected {_quote(self.width)}")
        return Square.from_strings(self.rows, self.alphabet)


def _json_head(square: Square, margin: str) -> str:
    """The JSON document of a square up to its rows, the same for every
    square of a stream; with ``_json_rows`` after it, as
    ``json.dumps(doc, indent=2)`` writes it.

    The keys are order, width, alphabet (when the square has one) and rows,
    whose cells are strings, the text each word keeps. Every line starts
    with ``margin``, which puts the document inside a JSON array as
    ``json.dumps`` of the array would. The text is written directly: its
    only values are ints and strings of ASCII digits, which JSON writes as
    they stand.
    """
    nl = "\n" + margin
    head = (f'{margin}{{{nl}  "order": {square.order},'
            f'{nl}  "width": {square.width},')
    if square.alphabet is not None:
        head += f'{nl}  "alphabet": "{square.alphabet}",'
    return head


def _json_rows(square: Square, margin: str) -> str:
    # the rest of the document: its rows and the closing brace
    nl = "\n" + margin
    cell = f'",{nl}      "'
    rows = f",{nl}    ".join(
        f'[{nl}      "{cell.join(map(_word_text, row))}"'
        f'{nl}    ]'
        for row in square.cells)
    return f'{nl}  "rows": [{nl}    {rows}{nl}  ]{nl}}}'


@contextlib.contextmanager
def _naming(source: str) -> Iterator[None]:
    """Name the source of any ValueError raised while reading a document."""
    try:
        yield
    except ValueError as exc:
        raise DocumentError(f"{source}: {exc}") from None


def parse_document(text: str, source: str = "<input>") -> Square:
    """The square of a JSON or CSV document (the first character decides,
    after one leading byte order mark, which is skipped)."""
    with _naming(source):
        if text.startswith("\ufeff"):
            # as a spreadsheet's "CSV UTF-8" export writes it
            text = text[1:]
        head = text.lstrip()[:1]
        if head == "{":
            import json

            try:
                obj = json.loads(text)
            except json.JSONDecodeError as exc:
                raise DocumentError(
                    f"invalid JSON at line {exc.lineno}, "
                    f"column {exc.colno}: {exc.msg}") from None
            except RecursionError:
                raise DocumentError("JSON nested too deeply") from None
            except ValueError as exc:
                # an integer literal longer than int() converts
                raise DocumentError(f"invalid JSON: {exc}") from None
            return SquareDocument.from_json_dict(obj).to_square()
        if head == "#":
            return _parse_csv(text).to_square()
        raise DocumentError(
            f"expected '{{' (JSON) or '# order,width' (CSV), got {head!r}")


def _parse_csv(text: str) -> SquareDocument:
    import csv

    # the header is the first non-blank line, as for choosing the format
    lines = [(k, ln) for k, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    number, first = lines[0]
    parts = [p.strip() for p in first.strip().lstrip("#").split(",")]
    try:
        if len(parts) != 2 or not all(is_digit_string(p) for p in parts):
            raise ValueError
        # int() also refuses a number of more than 4300 digits
        order, width = int(parts[0]), int(parts[1])
    except ValueError:
        raise DocumentError(
            f"line {number}: header must be '# order,width', "
            f"got {_quote(first)}") from None
    body = [ln for _, ln in lines[1:]]
    try:
        rows = list(csv.reader(io.StringIO("\n".join(body)), strict=True))
    except csv.Error as exc:
        raise DocumentError(f"bad CSV: {exc}") from None
    if len(rows) != order:
        raise DocumentError(
            f"expected {_quote(order)} data rows, got {len(rows)}")
    cleaned = [[cell.strip() for cell in row] for row in rows]
    return SquareDocument.from_json_dict(
        {"order": order, "width": width, "rows": cleaned})


def load_document(path: str) -> Square:
    """Read a document from a path, or from stdin for "-": its square."""
    if path == "-":
        source = "<stdin>"
        # a text stream put in place of stdin has no byte buffer
        data = getattr(sys.stdin, "buffer", sys.stdin).read()
    else:
        source = path
        with open(path, "rb") as fh:
            data = fh.read()
    if isinstance(data, bytes):
        with _naming(source):
            try:
                data = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DocumentError(
                    f"not UTF-8 text, byte {exc.start}: {exc.reason}") from None
    return parse_document(data, source)


def _output(path: str) -> contextlib.AbstractContextManager[TextIO]:
    """Stdout for "-", otherwise the file at path, opened for writing."""
    return (contextlib.nullcontext(sys.stdout) if path == "-"
            else open(path, "w", encoding="utf-8"))


def _verdict(ok: bool) -> str:
    text, code = ("PASS", "32") if ok else ("FAIL", "31")
    if os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _label(name: str) -> str:
    """A property as the CLI writes it: its flag without the dashes."""
    return name.replace("_", "-")


# the entry properties in flag and check order; the report keeps field order
_ENTRY_CHECKS = ("distinct", "palindromic", "rotation_closed")


def _check_printable(numbers: Iterable[int | None], width: int) -> None:
    """Refuse, before anything is written, a number too long for str()."""
    # 0 means no limit, as does a release before 3.10.7 without the function
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and max(filter(None, numbers), default=0) >= 10 ** limit:
        raise DocumentError(
            f"cells {width} digits wide give numbers of more than {limit} "
            f"digits, Python's limit for integer to string conversion")


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    square = load_document(args.square)
    rep = verify.report(square)
    checks = [(_label(name), getattr(rep, name))
              for name in SUM_PROPERTIES if getattr(args, name)]
    if args.blocks is not None:
        # the report holds every block size from 2 to the order that tiles
        blocks = dict(rep.blocks)
        common = (blocks[args.blocks] if args.blocks in blocks
                  else verify.check_blocks(square, args.blocks))
        checks.append((f"blocks {args.blocks}", common is not None))
    checks += [(_label(name), getattr(rep.entries, name))
               for name in _ENTRY_CHECKS if getattr(args, name)]
    shown = [rep.s1, rep.s2, *(common for _, common in rep.blocks)]
    if args.lines or args.format == "json":
        shown += [x for ln in rep.lines for x in (ln.total, ln.square_total)]
    _check_printable(shown, square.width)

    if args.format == "json":
        import json

        payload = rep.as_dict()
        if checks:
            payload["checks"] = [{"name": name, "ok": ok} for name, ok in checks]
        print(json.dumps(payload, indent=2))
    else:
        print(f"order: {rep.order}")
        print(f"width: {rep.width}")
        print(f"s1: {rep.s1 if rep.s1 is not None else '-'}")
        print(f"s2: {rep.s2 if rep.s2 is not None else '-'}")
        for name in SUM_PROPERTIES:
            print(f"{_label(name)}: {_yesno(getattr(rep, name))}")
        for k, common in rep.blocks:
            print(f"block {k}: {common if common is not None else 'none'}")
        print("entries: " + " ".join(
            f"{_label(name)}={_yesno(getattr(rep.entries, name))}"
            for name in rep.entries._fields))
        if args.lines:
            print("lines:")
            for ln in rep.lines:
                print(f"  {ln.label}: sum={ln.total} squares={ln.square_total}")
        for name, ok in checks:
            print(f"check {name}: {_verdict(ok)}")
    return EXIT_OK if all(ok for _, ok in checks) else EXIT_PROPERTY


class _TooLong(argparse.ArgumentTypeError):
    """An integer with more digits than Python converts from a string."""


def _integer(text: str) -> int:
    """An integer written in ASCII digits, with an optional leading minus.

    ``int`` alone also reads other scripts' digits, such as "٣" as 3. One
    longer than ``sys.get_int_max_str_digits()`` (4300 digits by default)
    is refused by its digit count, not echoed.
    """
    digits = text[1:] if text.startswith("-") else text
    if not is_digit_string(digits):
        raise argparse.ArgumentTypeError(
            f"expected an integer in ASCII digits, got {_quote(text)}")
    try:
        return int(text)
    except ValueError:
        raise _TooLong(
            f"an integer of {len(digits)} digits is longer than Python's "
            f"limit of {sys.get_int_max_str_digits()} digits") from None


def _parse_line_sums(raw: str, width: int) -> tuple[int, ...]:
    parts = [p.strip() for p in raw.split(",")]
    try:
        values = tuple(_integer(p) for p in parts)
    except _TooLong as exc:
        raise DocumentError(f"--line-sum: {exc}") from None
    except argparse.ArgumentTypeError:
        raise DocumentError(
            f"--line-sum must be integers, got {_quote(raw)}") from None
    # one value stands for every place; SearchSpec expands it
    if len(values) not in (1, width):
        raise DocumentError(f"--line-sum needs 1 or {_quote(width)} values, "
                            f"got {len(values)}")
    return values


def cmd_generate(args: argparse.Namespace) -> int:
    from . import generate

    try:
        alphabet = Alphabet.from_string(args.alphabet)
        line_sums = None
        if args.line_sum is not None:
            line_sums = _parse_line_sums(args.line_sum, args.width)
        elif not args.bimagic:
            raise DocumentError("--line-sum is required unless --bimagic is set")
        spec = generate.SearchSpec(
            order=args.order,
            width=args.width,
            alphabet=alphabet,
            line_sums=line_sums,
            pandiagonal=args.pandiagonal,
            distinct=args.distinct,
            palindromic=args.palindromic,
            bimagic=args.bimagic,
            limit=args.limit,
            seed=args.seed,
            budget_ms=args.budget_ms,
            deterministic=args.deterministic,
        )
    except ValueError as exc:
        # SearchSpec's and Alphabet's ValueError is too broad for main to map
        raise DocumentError(str(exc)) from None

    def budget_spent(emitted: int) -> None:
        print(f"budget of {spec.budget_ms} ms spent after {emitted} of "
              f"{spec.limit} squares", file=sys.stderr)

    # a search that fails raises before its first square: nothing is written
    squares = generate.gen_square(spec, on_budget=budget_spent)
    first = next(squares)
    # in the array every line sits two spaces deeper
    margin, head, sep, tail = (("  ", "[\n", ",\n", "\n]\n")
                               if args.format == "json"
                               else ("", "", "\n---\n", "\n"))
    # every square of a stream has the order, width and alphabet of the first
    doc_head = _json_head(first, margin)
    with _output(args.out) as out:
        out.write(head + doc_head + _json_rows(first, margin))
        for square in squares:
            out.write(sep + doc_head + _json_rows(square, margin))
        out.write(tail)
    return EXIT_OK


def cmd_transform(args: argparse.Namespace) -> int:
    square = load_document(args.square)
    result = rotate_square(square) if args.rotate180 else mirror_square(square)
    with _output(args.out) as out:
        out.write(_json_head(result, "") + _json_rows(result, "") + "\n")
    return EXIT_OK


def cmd_render(args: argparse.Namespace) -> int:
    from . import sevenseg

    square = load_document(args.square)
    art = sevenseg.render_square(square)
    if args.compact:
        art = "\n".join(line for line in art.split("\n") if line.strip())
    with _output(args.out) as out:
        out.write(art + "\n")
    return EXIT_OK


#: A digit plane's row as bytes 0-9, translated to its text.
_DIGIT_TEXT = bytes.maketrans(bytes(range(10)), b"0123456789")


def _json_layers(order: int, width: int,
                 layers: list[tuple[int, int | None, Grid]]) -> str:
    """The decompose document, as ``json.dumps(doc, indent=2)`` writes it.

    The keys are order, width and layers; each layer, given as (scale, line
    sum or None, grid), has place, scale, line_sum and rows. The text is
    written directly: its only values are ints and null.
    """
    entries = []
    for p, (scale, line_sum, grid) in enumerate(layers):
        rows = ",\n        ".join(
            "[\n          " + ",\n          ".join(
                bytes(row).translate(_DIGIT_TEXT).decode()) + "\n        ]"
            for row in grid)
        entries.append(
            f'    {{\n      "place": {p},\n      "scale": {scale},\n'
            f'      "line_sum": {"null" if line_sum is None else line_sum},\n'
            f'      "rows": [\n        {rows}\n      ]\n    }}')
    return (f'{{\n  "order": {order},\n  "width": {width},\n  "layers": [\n'
            + ",\n".join(entries) + "\n  ]\n}")


def cmd_decompose(args: argparse.Namespace) -> int:
    square = load_document(args.square)
    # (scale, common line sum or None, grid) per place
    layers = [(10 ** (square.width - 1 - p), _common(map(sum, _lines(grid))),
               grid)
              for p, grid in enumerate(decompose(square))]
    _check_printable((scale for scale, _, _ in layers), square.width)
    if args.format == "json":
        print(_json_layers(square.order, square.width, layers))
    else:
        for p, (scale, common, grid) in enumerate(layers):
            print(f"layer {p}: scale {scale}, "
                  f"line sum {common if common is not None else '-'}")
            for row in grid:
                print("  " + " ".join(map(str, row)))
    return EXIT_OK


# what argparse's own messages echo of the command line, each at the end
# or before argparse's own list of choices or options: the repr of an
# invalid choice or of an ignored explicit argument, an ambiguous option as
# typed, and the unrecognized arguments joined by spaces; compiled on the
# first error, not at every start
_ECHOED = (r"(?s)(?:(?<=invalid choice: )|(?<=ignored explicit argument )"
           r"|(?<=ambiguous option: )|(?<=unrecognized arguments: ))"
           r".{41,}?(?=(?: \(choose from [^()]*\)"
           r"| could match --[\w-]+(?:, --[\w-]+)*)?\Z)")


class _Parser(argparse.ArgumentParser):
    # also each subcommand's parser, which add_subparsers makes of its class

    def error(self, message):
        # an echoed value past 40 characters is shown by its first 40 and
        # its length
        super().error(re.sub(
            _ECHOED,
            lambda echo: f"{echo[0][:40]}... ({len(echo[0])} characters)",
            message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="digitsquares",
        description="Generate, transform, verify and draw digit squares.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="report and check properties of a square")
    p.add_argument("square", help="path to a JSON or CSV document, or -")
    p.add_argument("--format", choices=("text", "json"), default="text")
    for name in SUM_PROPERTIES:
        p.add_argument(f"--{_label(name)}", action="store_true")
    p.add_argument("--blocks", type=_integer, metavar="K",
                   help="require all aligned KxK blocks to share one sum")
    for name in _ENTRY_CHECKS:
        p.add_argument(f"--{_label(name)}", action="store_true")
    p.add_argument("--lines", action="store_true",
                   help="also print every line's sum and squared sum")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="search for squares")
    p.add_argument("--order", type=_integer, default=3)
    p.add_argument("--width", type=_integer, default=1)
    p.add_argument("--alphabet", default="012")
    p.add_argument("--line-sum", dest="line_sum",
                   help="target per digit place: one value or width "
                        "comma-separated values")
    p.add_argument("--pandiagonal", action="store_true")
    p.add_argument("--distinct", action="store_true")
    p.add_argument("--palindromic", action="store_true")
    p.add_argument("--bimagic", action="store_true",
                   help="order 9, width 4 bimagic construction")
    p.add_argument("--limit", type=_integer, default=1)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--budget-ms", dest="budget_ms", type=_integer)
    p.add_argument("--deterministic", action="store_true",
                   help="lexicographic order instead of seeded shuffling")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("transform", help="rotate or mirror a square")
    p.add_argument("square")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rotate180", action="store_true")
    group.add_argument("--mirror", action="store_true")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("render", help="draw a square as seven-segment ASCII")
    p.add_argument("square")
    p.add_argument("--compact", action="store_true",
                   help="drop the blank lines between square rows")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("decompose", help="split a square into digit planes")
    p.add_argument("square")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_decompose)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DocumentError, ShapeMismatch, InvalidState, BadBlockSize,
            OSError) as exc:
        failure, code = f"error: {exc}", EXIT_USAGE
    except UnmappableDigit as exc:
        failure, code = f"cannot transform: {exc}", EXIT_PROPERTY
    except Unsatisfiable as exc:
        failure, code = f"no squares: {exc}", EXIT_SEARCH
    except BudgetExhausted as exc:
        failure, code = f"out of budget: {exc}", EXIT_SEARCH
    print(failure, file=sys.stderr)
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
