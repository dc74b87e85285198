"""Tracked-artifact hygiene (ISSUE 10 satellite).

The CI workflow greps the checkout for stray bytecode and build
artifacts; this is the same guard as a test, so it also fires locally
for anyone who accidentally ``git add``s a ``__pycache__`` after
running the suite with ``PYTHONPATH=src``.
"""

import os
import subprocess

import pytest

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..")
)

#: Path fragments that must never be tracked.  Kept in sync with the
#: "no build artifacts" step in .github/workflows/ci.yml.
FORBIDDEN_FRAGMENTS = (
    "__pycache__",
    ".pytest_cache",
    ".mypy_cache",
    ".egg-info",
    "build/",
    "dist/",
)

FORBIDDEN_SUFFIXES = (".pyc", ".pyo", ".pyd", ".so", ".whl")


def tracked_files():
    try:
        output = subprocess.run(
            ["git", "ls-files"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout (or git unavailable)")
    return output.splitlines()


def test_no_bytecode_or_build_artifacts_tracked():
    offenders = [
        path
        for path in tracked_files()
        if any(fragment in path for fragment in FORBIDDEN_FRAGMENTS)
        or path.endswith(FORBIDDEN_SUFFIXES)
    ]
    assert offenders == [], (
        "build artifacts are tracked in git; "
        "`git rm -r --cached` them: " + ", ".join(offenders)
    )


def test_gitignore_shields_bytecode_under_src():
    # Running this suite with PYTHONPATH=src plants __pycache__ under
    # src/ — unavoidable without PYTHONDONTWRITEBYTECODE.  What must
    # hold instead is that .gitignore covers them, so a later
    # `git add -A` can never turn them into tracked files (the case
    # the test above would then catch too late, post-commit).
    probes = [
        "src/repro/__pycache__/x.pyc",
        "src/repro/store/__pycache__/x.pyc",
        "tests/__pycache__/x.pyc",
        ".pytest_cache/x",
    ]
    try:
        result = subprocess.run(
            ["git", "check-ignore", "--stdin"],
            cwd=REPO_ROOT,
            input="\n".join(probes) + "\n",
            capture_output=True,
            text=True,
        )
    except OSError:
        pytest.skip("git unavailable")
    # 0: some probe ignored, 1: none ignored; anything else (128 is
    # "not a git repository") means git could not answer at all.
    if result.returncode not in (0, 1):
        pytest.skip("not a git checkout (or git unavailable)")
    ignored = set(result.stdout.splitlines())
    missed = [probe for probe in probes if probe not in ignored]
    assert missed == [], (
        ".gitignore does not shield these artifact paths: "
        + ", ".join(missed)
    )
