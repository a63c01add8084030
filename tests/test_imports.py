"""What a call imports: the lazy package namespace and each command's modules."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import digitsquares
from digitsquares import cli, core, generate, verify

SRC = Path(digitsquares.__file__).parents[1]
SUBMODULES = ("cli", "construct", "core", "generate", "sevenseg", "verify")

# written at the exit of a child interpreter: the package modules it loaded
DUMP_AT_EXIT = """\
import atexit, os, sys

@atexit.register
def _dump():
    with open(os.environ["LOADED_MODULES_FILE"], "w") as fh:
        fh.write("\\n".join(sorted(sys.modules)))
"""

DOC = json.dumps({"order": 3, "width": 1, "alphabet": "012",
                  "rows": [["1", "2", "0"], ["0", "1", "2"], ["2", "0", "1"]]})


def loaded(tmp_path, *argv, stdin=""):
    """Run ``python -X importtime -m digitsquares *argv``; its exit code,
    the package submodules in its sys.modules at exit, those that
    -X importtime timed, and the modules outside the package it loaded
    beyond those of ``python -c pass`` in the same environment."""
    (tmp_path / "sitecustomize.py").write_text(DUMP_AT_EXIT)
    dump = tmp_path / "modules.txt"
    env = dict(os.environ, LOADED_MODULES_FILE=str(dump),
               PYTHONPATH=os.pathsep.join((str(tmp_path), str(SRC))))

    def run(*args):
        proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                              input=stdin, capture_output=True, text=True,
                              env=env, timeout=60)
        return proc, set(dump.read_text().split("\n"))

    _, bare = run("-c", "pass")
    proc, names = run("-m", "digitsquares", *argv)
    timed = set(re.findall(r"\| +digitsquares\.(\w+)$", proc.stderr, re.M))
    return (proc.returncode, {m for m in SUBMODULES
                              if f"digitsquares.{m}" in names}, timed,
            {m for m in names - bare if m.split(".")[0] != "digitsquares"})


@pytest.mark.parametrize("argv, modules", [
    (["--help"], {"cli", "core"}),
    (["transform", "--rotate180", "-"], {"cli", "core"}),
    (["transform", "--mirror", "-"], {"cli", "core"}),
    (["decompose", "-"], {"cli", "core"}),
    (["verify", "--magic", "-"], {"cli", "core", "verify"}),
    (["render", "-"], {"cli", "core", "sevenseg"}),
    (["generate", "--order", "3", "--line-sum", "3"],
     {"cli", "core", "generate"}),
    # the bimagic path re-verifies against S2 as a constant
    (["generate", "--order", "9", "--width", "4", "--bimagic"],
     {"cli", "core", "generate", "construct"}),
    # a layer search, with every option it shares with no construction,
    # loads no construction
    (["generate", "--order", "3", "--width", "4", "--line-sum", "3",
      "--distinct", "--palindromic"], {"cli", "core", "generate"}),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, modules):
    code, submodules, timed, others = loaded(tmp_path, *argv, stdin=DOC)
    # a module loaded on first use is still timed by -X importtime
    assert (code, submodules, timed) == (0, modules, modules)
    # dataclasses imports inspect, with ast, dis and tokenize: about 4 ms
    # of each call's start
    assert not {"dataclasses", "inspect"} & others, sorted(others)


def test_plain_import_loads_no_submodule():
    script = ("import sys, digitsquares; "
              "print([m for m in sys.modules if m.startswith('digitsquares.')]); "
              "print(digitsquares.generate.__name__)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\ndigitsquares.generate\n"


def test_compose_blocks_loads_only_core():
    script = ("import sys; from digitsquares import compose_blocks; "
              "print(sorted(m for m in sys.modules "
              "if m.startswith('digitsquares.')))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['digitsquares.core']\n"


@pytest.mark.parametrize("name", sorted(set(digitsquares.__all__)
                                       - {"__version__"}))
def test_every_exported_name_is_its_submodules_object(name):
    modules = [importlib.import_module(f"digitsquares.{m}") for m in SUBMODULES]
    # a name imported from one submodule into another is the same object
    owners = {id(vars(m)[name]) for m in modules if name in vars(m)}
    assert owners == {id(getattr(digitsquares, name))}


EXPORTED = {
    "Alphabet", "BadBlockSize", "BudgetExhausted", "CodeWord", "InvalidState",
    "MIRROR", "MalformedBlock", "NonMirrorableDigit", "NonRotatableDigit",
    "PropertyReport", "ROTATION_180", "SearchSpec", "ShapeMismatch", "Square",
    "Unsatisfiable", "__version__", "audit_published_values", "check_bimagic",
    "check_blocks", "check_magic", "check_pandiagonal", "compose_blocks",
    "decompose", "entry_properties", "gen_square", "line_sums",
    "mirror_codeword", "mirror_square", "palindromic_extend",
    "pythagoras_check", "recompose", "render_square", "report",
    "rotate_codeword", "rotate_square", "rotate_text", "s2_from_multiset",
}

# names that only tests use: importable from their module, not the package
MODULE_ONLY = [("ClaimAudit", "verify"), ("EntryProperties", "verify"),
               ("LineSum", "verify"), ("NotDivisible", "verify"),
               ("PythagorasResult", "verify"), ("render_codeword", "sevenseg")]


def test_star_import_yields_exactly_all():
    namespace = {}
    exec("from digitsquares import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(digitsquares.__all__)
    assert len(digitsquares.__all__) == len(set(digitsquares.__all__)) == 37
    assert set(digitsquares.__all__) == EXPORTED


@pytest.mark.parametrize("name, module", MODULE_ONLY,
                         ids=[name for name, _ in MODULE_ONLY])
def test_a_test_only_name_imports_from_its_module_alone(name, module):
    namespace, star = {}, {}
    exec(f"from digitsquares.{module} import {name}", namespace)
    assert namespace[name] is vars(importlib.import_module(
        f"digitsquares.{module}"))[name]
    exec("from digitsquares import *", star)
    assert name not in star
    with pytest.raises(AttributeError, match=f"no attribute {name!r}"):
        getattr(digitsquares, name)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        digitsquares.no_such_name
    assert not hasattr(digitsquares, "WordTable")


def test_the_exit_code_exceptions_live_in_core():
    assert verify.InvalidState is core.InvalidState
    assert verify.BadBlockSize is core.BadBlockSize
    assert verify.SUM_PROPERTIES is core.SUM_PROPERTIES
    assert generate.Unsatisfiable is core.Unsatisfiable
    assert generate.BudgetExhausted is core.BudgetExhausted


@pytest.mark.parametrize("exc, code, prefix", [
    (core.InvalidState, 2, "error: "),
    (core.BadBlockSize, 2, "error: "),
    (core.Unsatisfiable, 3, "no squares: "),
    (core.BudgetExhausted, 3, "out of budget: "),
])
def test_the_moved_exceptions_keep_their_exit_code(capsys, monkeypatch, exc,
                                                   code, prefix):
    def fail(args):
        raise exc("what went wrong")

    monkeypatch.setattr(cli, "cmd_transform", fail)
    assert cli.main(["transform", "--mirror", "-"]) == code
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"{prefix}what went wrong\n")
