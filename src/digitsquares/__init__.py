"""Digit squares: magic and bimagic squares of fixed-width digit strings.

Squares here hold code words (digit strings with significant leading zeros)
instead of plain numbers. The package generates them layer by digit layer,
verifies their sums exactly, rotates and mirrors them the way a seven
segment display would, and draws them.
"""

from .core import (Alphabet, CodeWord, MIRROR, NonMirrorableDigit,
                   NonRotatableDigit, ROTATION_180, ShapeMismatch, Square,
                   decompose, mirror_codeword, mirror_square,
                   palindromic_extend, recompose, rotate_codeword,
                   rotate_square)
from .generate import (BudgetExhausted, SearchSpec, Unsatisfiable,
                       compose_blocks, gen_square)
from .sevenseg import (MalformedBlock, render_codeword, render_square,
                       rotate_text)
from .verify import (BadBlockSize, ClaimAudit, EntryProperties, InvalidState,
                     LineSum, NotDivisible, PropertyReport, PythagorasResult,
                     audit_published_values, check_bimagic, check_blocks,
                     check_magic, check_pandiagonal, entry_properties,
                     line_sums, pythagoras_check, report, s2_from_multiset)

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "BadBlockSize", "BudgetExhausted", "ClaimAudit", "CodeWord",
    "EntryProperties", "InvalidState", "LineSum", "MIRROR",
    "MalformedBlock", "NonMirrorableDigit", "NonRotatableDigit",
    "NotDivisible", "PropertyReport", "PythagorasResult", "ROTATION_180",
    "SearchSpec", "ShapeMismatch", "Square", "Unsatisfiable",
    "audit_published_values", "check_bimagic", "check_blocks",
    "check_magic", "check_pandiagonal", "compose_blocks",
    "decompose", "entry_properties", "gen_square", "line_sums",
    "mirror_codeword", "mirror_square", "palindromic_extend",
    "pythagoras_check", "recompose", "render_codeword", "render_square",
    "report", "rotate_codeword", "rotate_square", "rotate_text",
    "s2_from_multiset", "__version__",
]
