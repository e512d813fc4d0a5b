"""Every ``module.name`` and ``Class.name`` that README cites exists.

Each backticked span of README.md that starts with a dotted name is
resolved against the package: the first part is one of its modules (such
as ``bounds``) or an attribute of one (a class such as ``OupRun`` or
``ArmState``), and each later part an attribute of the one before.  A name
that does not resolve fails the test, so a doc that still cites a removed
or renamed name fails until it follows the code.  ``SKIPPED`` lists the
cited names that are not package attributes, with the reason.

Every ``BENCH_*.json``, ``tools/*.py`` and ``tests/*.py`` path that README
cites must exist too, since README points to those files for its numbers.
A ``*`` in a cited path stands for the files it matches, of which there must
be at least one.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import utilcap

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# the leading dotted name of a backticked span, up to a call or a space
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)")

# a benchmark result file, or a module of the tools or the tests
CITED_PATH = re.compile(r"BENCH_[\w*]+\.json|(?:tools|tests)/[\w*]+\.py")

SKIPPED = {
    # files a run or the benchmark writes
    "trace.csv", "certificates.csv", "summary.csv",
    "BENCH_pr12_change_sweep_small_pool_trace.json",
    # instance attributes: set in __init__, or of an object named for its role
    "OupRun.rounds", "CoupRun.rounds", "ctx.n", "oracle.runtime_of",
    "sampler.sample", "snapshot._replace",
    # a per-layer metric of the benchmark, not a package name
    "harness.spec_s",
    # other packages, and the tests' helper module
    "csv.writer", "sys.setprofile", "os.sched_getaffinity", "os.cpu_count",
    "mpmath.ncdf", "concurrent.futures", "helpers.durations",
}


def cited_names() -> set[str]:
    return set(DOTTED.findall(README.read_text(encoding="utf-8")))


MODULES = {
    m.name: importlib.import_module(f"utilcap.{m.name}")
    for m in pkgutil.iter_modules(utilcap.__path__)
}


def resolve(name: str):
    first, *rest = name.split(".")
    if first in MODULES:
        obj = MODULES[first]
    else:
        obj = next(getattr(m, first) for m in MODULES.values() if hasattr(m, first))
    for part in rest:
        obj = getattr(obj, part)
    return obj


def test_every_name_readme_cites_resolves():
    names = cited_names()
    unresolved = []
    for name in sorted(names - SKIPPED):
        try:
            resolve(name)
        except (AttributeError, StopIteration):
            unresolved.append(name)
    assert unresolved == []
    # the skip list names only what README still cites
    assert SKIPPED <= names


def test_every_file_readme_cites_exists():
    paths = set(CITED_PATH.findall(README.read_text(encoding="utf-8")))
    assert paths
    missing = [path for path in sorted(paths) if not any(ROOT.glob(path))]
    assert missing == []
