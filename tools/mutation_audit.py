"""One-at-a-time mutation audit of one module of dlczsim, stdlib only.

Each mutant changes one site of the module's syntax tree:

- a comparison flipped at its boundary (< and <=, > and >=, == and !=), or
  an identity test negated (is and is not);
- + swapped with - in a binary operation, and `and` with `or`;
- an int constant raised by 1, or a float constant scaled by 1.0001
  (0.0 becomes 1e-4).

For each mutant the script copies ``src/``, ``tests/`` and ``pyproject.toml``
into a work directory, writes the mutated module there and runs only the test
files of ``tests/`` that import the module, under ``pytest -x`` with the
conftest's ``ci`` profile (fixed Hypothesis examples).  The unmutated copy
runs first and must pass.  A mutant is caught when pytest reports a failed
test (exit code 1) or runs past the timeout.  Any other exit code (a
collection error, say, when the mutant cannot be imported) is reported as
an error, to be read by hand.  A mutant that every selected test
passes survives; each survivor needs a test that fails on it, or an
argument that it is equivalent.  The work directory must lie outside the
repository, so the repository is never written to.

    python tools/mutation_audit.py src/dlczsim/angular.py --workdir /tmp/mutants
    python tools/mutation_audit.py src/dlczsim/angular.py --list

``--list`` builds each mutant's source and compiles it, and runs no test
(about 25 s for every module of the package on a 2-core host).

Tier-1 does not run this script.  A caught mutant takes a few seconds and a
survivor the whole selected run (about 25 s for angular.py, whose 157
mutants take some 10 to 15 minutes on a 2-core host).
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# seconds for one run of the selected tests; the slowest, the unmutated copy's, takes
# about 25 s for angular.py on a 2-core host
_TIMEOUT_S = 600

_FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
# the operator nodes swapped in a BinOp or a BoolOp
_SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.And: ast.Or, ast.Or: ast.And}
_SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.Add: "+", ast.Sub: "-", ast.And: "and", ast.Or: "or",
}


def _nudged(value):
    if isinstance(value, int):
        return value + 1
    return value * 1.0001 if value else 1e-4


def mutation_sites(tree: ast.Module) -> list[tuple[int, str, object]]:
    """(line, description, site) of every mutation, by line.

    ``site`` is (node index in the walk, what to change), so that a fresh
    parse of the same source, walked the same way, can apply it.
    """
    sites = []
    for index, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in _FLIPS:
                    new = _FLIPS[type(op)]
                    sites.append((node.lineno, f"{_SYMBOLS[type(op)]} -> {_SYMBOLS[new]}", (index, ("op", k, new))))
        elif isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in _SWAPS:
            new = _SWAPS[type(node.op)]
            sites.append((node.lineno, f"{_SYMBOLS[type(node.op)]} -> {_SYMBOLS[new]}", (index, ("operator", new))))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool)
        ):
            new = _nudged(node.value)
            sites.append((node.lineno, f"{node.value!r} -> {new!r}", (index, ("const", new))))
    return sorted(sites, key=lambda s: (s[0], s[2][0]))


def mutant_source(source: str, site) -> str:
    index, (kind, *change) = site
    # a fresh parse numbers its nodes as mutation_sites saw them, in a third of a deep copy's time
    mutant = ast.parse(source)
    node = next(n for i, n in enumerate(ast.walk(mutant)) if i == index)
    if kind == "op":
        node.ops[change[0]] = change[1]()
    elif kind == "operator":
        node.op = change[0]()
    else:
        node.value = change[0]
    return ast.unparse(mutant) + "\n"


def importing_tests(module_name: str) -> list[Path]:
    """The test files of tests/ that import ``module_name`` directly, its own first."""
    leaf = module_name.rpartition(".")[2]
    found = []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            if module_name in names:
                found.append(path)
                break
    return sorted(found, key=lambda p: p.stem != f"test_{leaf}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="path of the module under src/, e.g. src/dlczsim/angular.py")
    parser.add_argument("--workdir", help="where the mutated copies go (default: a new temporary directory)")
    parser.add_argument("--list", action="store_true", help="build, compile and list the mutants, and run nothing")
    args = parser.parse_args(argv)

    module = Path(args.module).resolve()
    relative = module.relative_to(ROOT / "src")
    module_name = ".".join(relative.with_suffix("").parts)
    source = module.read_text(encoding="utf-8")
    sites = mutation_sites(ast.parse(source))
    if args.list:
        unmutated = ast.unparse(ast.parse(source)) + "\n"
        for number, (line, description, site) in enumerate(sites):
            mutant = mutant_source(source, site)
            if mutant == unmutated:
                raise SystemExit(f"mutant {number} (line {line}: {description}) changes nothing")
            compile(mutant, str(module), "exec")
            print(f"{number:4d}  line {line}: {description}")
        return 0

    work = Path(args.workdir or tempfile.mkdtemp(prefix="mutants-")).resolve()
    if work.is_relative_to(ROOT):
        parser.error(f"--workdir {work} lies inside the repository; choose a directory outside it")
    tests = importing_tests(module_name)
    print(f"{len(sites)} mutants of {module_name}; tests: {', '.join(p.name for p in tests)}")

    work.mkdir(parents=True, exist_ok=True)
    for name in ("src", "tests"):
        shutil.rmtree(work / name, ignore_errors=True)
        shutil.copytree(ROOT / name, work / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
    target = work / "src" / relative
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1", HYPOTHESIS_PROFILE="ci")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *(f"tests/{p.name}" for p in tests)]

    def run_tests() -> str:
        try:
            code = subprocess.run(command, cwd=work, env=env, capture_output=True, timeout=_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            return "caught (timeout)"
        return {0: "survived", 1: "caught"}.get(code, f"error (pytest exit code {code})")

    baseline = run_tests()
    if baseline != "survived":
        print(f"the unmutated copy did not pass: {baseline}")
        return 2
    survivors, errors = [], []
    for number, (line, description, site) in enumerate(sites):
        target.write_text(mutant_source(source, site), encoding="utf-8")
        outcome = run_tests()
        print(f"{number:4d}  line {line}: {description:24s} {outcome}", flush=True)
        if outcome == "survived":
            survivors.append(number)
        elif outcome.startswith("error"):
            errors.append(number)
    target.write_text(source, encoding="utf-8")
    print(f"{len(survivors)} of {len(sites)} survived: {','.join(map(str, survivors)) or 'none'}")
    if errors:
        print(f"{len(errors)} ended in an error: {','.join(map(str, errors))}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
