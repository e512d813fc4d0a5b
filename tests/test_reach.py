"""Every function in ``src/utilcap`` is reached by some command.

A fresh interpreter runs a set of CLI commands in-process under
``sys.setprofile`` and reports every function of the package that was
called.  The commands cover each procedure, both oracle kinds, the four
synthetic families, every verb, both utilities, both doubling rules, every
stop rule, custom schedules and the exit 2, 3 and 4 paths.  A function that
none of them reaches only serves its own unit test; this test fails until
it is deleted or a command reaches it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Functions that no command reaches and that stay, with the reason why.
EXEMPT = {
    # returns the CPUs of this process; the probe patches it to 1 so that
    # `validate` trials and `sweep` cells run in the traced process
    "harness.usable_cpus",
}

POOLS = {
    "exponential.txt": "family=exponential\nparams=1.0;50.0;150.0\nn_configs=3\nseed=0\n",
    "lognormal.txt": "family=lognormal\nparams=0.0,1.0;2.0,1.0\n",
    "twopoint.txt": "family=twopoint\nparams=1,30,0.9;2,100,0.5\n",
    "parametric.txt": "family=parametric_exponential\nparams=0.1,10000\n",
    "matrix.csv": "a,1,2\nb,3,4\n",
    "six.txt": "family=exponential\nparams=1.0;5.0;20.0;60.0;150.0;400.0\n",
}


def _command(verb, procedure, oracle, stop, *extra):
    return [verb, "--procedure", procedure, "--oracle", oracle, "--stop", stop,
            "--delta", "0.1", *extra]


EXP = "synthetic:exponential.txt"

# (argv, expected exit code)
COMMANDS = [
    (_command("run", "oup", EXP, "epsilon:0.4", "--doubling", "new",
              "--seed", "1", "--out", "oup"), 0),
    (_command("run", "up", EXP, "rounds:40", "--seed", "1", "--out", "up"), 0),
    # a sweep boundary near round 890 eliminates one of the three arms
    (_command("run", "up", EXP, "epsilon:0.3", "--seed", "1", "--out", "up_eliminates"), 0),
    (_command("run", "up", EXP, "single_survivor", "--seed", "1", "--out", "up_single"), 0),
    (_command("run", "naive", EXP, "epsilon:0.9", "--utility", "uniform:kappa0=60",
              "--seed", "1", "--out", "naive"), 0),
    (_command("run", "sh", EXP, "budget:64", "--sh-kappa", "8", "--seed", "1",
              "--out", "sh"), 0),
    (_command("run", "coup", "synthetic:parametric.txt", "phases:2", "--schedule",
              "custom:eps=e^-p/6,gamma=e^-p^2/3", "--seed", "1", "--out", "coup"), 0),
    (_command("sweep", "oup,up", "synthetic:twopoint.txt", "budget:30",
              "--seeds", "0:2", "--out", "sweep"), 0),
    (["curve", "--runs", "sweep/oup_seed0", "sweep/up_seed0", "--out", "curve.csv"], 0),
    # lognormal ground truth runs the quadrature; a negative bound forces exit 4
    (_command("validate", "oup", "synthetic:lognormal.txt", "epsilon:0.5",
              "--trials", "2", "--max-failure-rate", "-1"), 4),
    # a finite pool's quantile and a parametric space's closed-form one
    (_command("validate", "coup", "synthetic:twopoint.txt", "phases:1", "--trials", "2"), 0),
    (_command("validate", "coup", "synthetic:parametric.txt", "phases:1", "--trials", "2"), 0),
    # phase 1 takes 5 of the 6 configurations and phase 2 needs 10; the
    # spec boundary checks only phase 1 of a budget, so the sampler refuses
    (_command("run", "coup", "synthetic:six.txt", "budget:1000", "--without-replacement",
              "--seed", "1", "--out", "drained"), 2),
    (_command("run", "oup", "matrix:matrix.csv", "epsilon:0.01", "--seed", "1",
              "--out", "exhausted"), 3),
]

PROBE = """
import contextlib, io, json, sys
from utilcap import cli, harness

harness.usable_cpus = lambda: 1
src, commands = sys.argv[1], json.loads(sys.argv[2])
reached = set()

def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(src):
        reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

codes = []
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        try:
            codes.append(cli.main(argv))
        finally:
            sys.setprofile(None)
print(json.dumps({"codes": codes, "reached": sorted(reached)}))
"""


def package_functions() -> dict[tuple[str, int], str]:
    """Every ``def`` in the package, keyed as a code object names it: by file
    and first line, which is the first decorator's line when there is one."""
    functions = {}
    for path in sorted((SRC / "utilcap").glob("*.py")):

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    functions[(str(path), first)] = f"{prefix}{child.name}"
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.")
    return functions


def test_every_function_is_reached_by_a_command(tmp_path):
    for name, text in POOLS.items():
        (tmp_path / name).write_text(text)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("UTILCAP_OUT", None)
    argvs = [argv for argv, _ in COMMANDS]
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC / "utilcap"), json.dumps(argvs)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe["codes"] == [code for _, code in COMMANDS]
    functions = package_functions()
    reached = {functions.get((path, line)) for path, line in probe["reached"]}
    unreached = set(functions.values()) - reached
    assert unreached == EXEMPT
