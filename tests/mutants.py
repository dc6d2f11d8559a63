"""Mutation check: every mutant below is one exact edit to the source that
its named tests must catch.

Run from the repository root with ``python tests/mutants.py``.  It copies
``src/`` and ``tests/`` to a temporary directory, runs the named tests there
once unmutated, then once per mutant with its edit applied.  It exits 1 if
the unmutated run fails, if an edit does not match its file exactly once
(so a refactor that moves the text fails here, and the mutant is updated
with it), or if a mutant's tests all pass.  pytest does not collect this
file, as its name does not start with ``test_``.
"""

import pathlib
import shutil
import subprocess
import sys
import tempfile

# (name, file, text, its replacement, tests that must fail)
MUTANTS = [
    (
        "the multiplier adds the t_c term instead of subtracting it",
        "src/wavecert/condition.py",
        "    out -= t_c\n",
        "    out += t_c\n",
        ["tests/test_ray_identity.py::test_diagonal_field_exponential_weight"],
    ),
    (
        "the walk visits a right operand before the left",
        "src/wavecert/expr.py",
        "stack += (e, _WALKED, e.right, e.left)",
        "stack += (e, _WALKED, e.left, e.right)",
        ["tests/test_expr.py::TestCompile::test_walk_order_is_pinned"],
    ),
    (
        "sign_ranges drops the signed-zero rule for a minimum",
        "src/wavecert/weight.py",
        "    lo = np.where((lo == 0.0) & (zero & signs).any(axis=0), -0.0, lo)\n",
        "",
        ["tests/test_weight.py::TestIndexSignRanges"],
    ),
    (
        "the parser lets '^' chain",
        "src/wavecert/expr.py",
        'level = -1 if value == "^" and ops[-1:] == ["^"] else _PRECEDENCE.get(value, -1)',
        "level = _PRECEDENCE.get(value, -1)",
        ["tests/test_expr.py::TestParse"],
    ),
]


def pytest(root, tests):
    """pytest's exit code for ``tests`` in the copy at ``root``."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    return done.returncode, done.stdout.strip().splitlines()[-1:]


def main() -> int:
    repo = pathlib.Path(__file__).resolve().parent.parent
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        for part in ("src", "tests", "pyproject.toml"):
            copy = shutil.copytree if (repo / part).is_dir() else shutil.copy
            copy(repo / part, root / part)
        code, last = pytest(root, sorted({t for *_, tests in MUTANTS for t in tests}))
        print(f"unmutated: exit {code} {last}")
        if code != 0:
            return 1
        for name, path, old, new, tests in MUTANTS:
            source = (root / path).read_text()
            if source.count(old) != 1:
                print(f"FAIL {name}: the edit matches {path} {source.count(old)} times, not once")
                failures += 1
                continue
            (root / path).write_text(source.replace(old, new))
            try:
                code, last = pytest(root, tests)
            finally:
                (root / path).write_text(source)
            caught = code == 1  # some test failed; 0 is a survivor, others an error
            print(f"{'caught' if caught else 'FAIL'} {name}: exit {code} {last}")
            failures += not caught
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
