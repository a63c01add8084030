"""Digit squares: magic and bimagic squares of fixed-width digit strings.

Squares here hold code words (digit strings with significant leading zeros)
instead of plain numbers. The package generates them layer by digit layer,
verifies their sums exactly, rotates and mirrors them the way a seven
segment display would, and draws them.

Each public name, and each submodule, is imported on first use (PEP 562),
so ``import digitsquares`` loads no submodule and a command line call loads
only the modules its subcommand runs.
"""

import sys

__version__ = "0.1.0"

# each public name -> the submodule that defines it
_HOME = {
    **dict.fromkeys((
        "Alphabet", "BadBlockSize", "BudgetExhausted", "CodeWord",
        "InvalidState", "MIRROR", "NonMirrorableDigit", "NonRotatableDigit",
        "ROTATION_180", "ShapeMismatch", "Square", "Unsatisfiable",
        "compose_blocks", "decompose", "mirror_codeword", "mirror_square",
        "palindromic_extend", "recompose", "rotate_codeword",
        "rotate_square"), "core"),
    **dict.fromkeys(("SearchSpec", "gen_square"), "generate"),
    **dict.fromkeys(("MalformedBlock", "render_square", "rotate_text"),
                    "sevenseg"),
    **dict.fromkeys((
        "PropertyReport", "audit_published_values", "check_bimagic",
        "check_blocks", "check_magic", "check_pandiagonal", "entry_properties",
        "line_sums", "pythagoras_check", "report", "s2_from_multiset"),
        "verify"),
}

_SUBMODULES = ("cli", "construct", "core", "generate", "sevenseg", "verify")

__all__ = [*_HOME, "__version__"]


def _submodule(name: str):
    # __import__, not importlib.import_module: only the former shows in
    # -X importtime; importing a submodule also binds it here
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _submodule(name)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_submodule(_HOME[name]), name)
    return value
