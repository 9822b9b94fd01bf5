"""Documentation lint: dead links, undocumented experiments, stale env vars.

The docs cross-reference each other, the source tree, and the experiment
catalog — all of which drift as the library grows.  This checker keeps
them honest:

* every relative markdown link (``[text](OTHER.md)``) in ``README.md``
  and ``docs/*.md`` must resolve to an existing file;
* every backticked path reference (`` `docs/RUNTIME.md` ``,
  `` `src/repro/cli.py` ``) must exist, resolved against the referencing
  file's directory, the repo root, and ``src/repro``;
* every experiment registered in :mod:`repro.eval.experiments` must be
  mentioned by name in at least one checked document;
* every ``REPRO_*`` environment variable a checked document names must
  be read by some ``.py`` file under ``src/``, ``tests/`` or
  ``benchmarks/`` (it appears there as a quoted string literal).

Run it directly::

    PYTHONPATH=src python -m repro.tools.check_docs
    python -m repro.tools.check_docs --root /path/to/checkout

Exit code 0 = clean, 1 = problems (each printed on its own line).  The
test suite runs the same checks behind the opt-in ``docs_lint`` marker
(``pytest --docs-lint`` or ``REPRO_DOCS_LINT=1``).
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

__all__ = ["collect_problems", "main"]

#: Relative markdown links: [text](target) with no scheme/anchor-only.
_LINK_RE = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")

#: Backticked path-looking references ending in .md or .py.
_BACKTICK_RE = re.compile(r"`([^`\s]+\.(?:md|py))`")

#: The project's environment variable names.
_ENV_RE = re.compile(r"\bREPRO_[A-Z0-9_]+\b")

#: Where the code that may read an environment variable lives.
_CODE_DIRS = ("src", "tests", "benchmarks")


def _repo_root():
    """The checkout root, assuming the ``src/repro/tools`` layout."""
    return pathlib.Path(__file__).resolve().parents[3]


def _documents(root):
    """The markdown files under lint, in deterministic order."""
    docs = [root / "README.md"]
    docs_dir = root / "docs"
    if docs_dir.is_dir():
        docs.extend(sorted(docs_dir.glob("*.md")))
    return [d for d in docs if d.is_file()]


def _is_external(target):
    return target.startswith(("http://", "https://", "mailto:", "#"))


def _resolves(target, doc_path, root):
    """Can ``target`` be found anywhere sensible?"""
    if any(ch in target for ch in "*?<>{}"):
        return True  # glob/placeholder, not a literal path
    candidates = (
        doc_path.parent / target,
        root / target,
        root / "src" / "repro" / target,
        root / "examples" / target,
        root / "benchmarks" / target,
    )
    return any(c.exists() for c in candidates)


def check_links(root, problems):
    """Validate relative links and backticked path references."""
    for doc in _documents(root):
        text = doc.read_text(encoding="utf-8")
        rel = doc.relative_to(root)
        for match in _LINK_RE.finditer(text):
            target = match.group(1).split("#", 1)[0]
            if not target or _is_external(match.group(1)):
                continue
            if "." not in target and "/" not in target:
                continue  # math notation or intra-page anchor, not a path
            if not _resolves(target, doc, root):
                problems.append(f"{rel}: dead link -> {target}")
        for match in _BACKTICK_RE.finditer(text):
            target = match.group(1)
            if not _resolves(target, doc, root):
                problems.append(f"{rel}: missing path reference "
                                f"-> {target}")


def check_experiments_documented(root, problems):
    """Every registered experiment must appear in the checked docs."""
    from ..eval import experiments

    corpus = "\n".join(doc.read_text(encoding="utf-8")
                       for doc in _documents(root))
    for name in experiments.experiment_names():
        if name not in corpus:
            problems.append(
                f"experiment {name!r} is registered but never mentioned "
                "in README.md or docs/"
            )


def check_env_vars_read(root, problems):
    """Every ``REPRO_*`` name in the checked docs must be read by code."""
    code = "\n".join(path.read_text(encoding="utf-8")
                     for d in _CODE_DIRS
                     for path in sorted((root / d).rglob("*.py")))
    read = set(re.findall(r"[\"'](REPRO_[A-Z0-9_]+)[\"']", code))
    for doc in _documents(root):
        named = set(_ENV_RE.findall(doc.read_text(encoding="utf-8")))
        for name in sorted(named - read):
            problems.append(
                f"{doc.relative_to(root)}: environment variable {name} "
                f"is read by no .py file under {', '.join(_CODE_DIRS)}")


def collect_problems(root=None):
    """Run every check; returns a list of problem strings (empty = clean)."""
    root = pathlib.Path(root) if root is not None else _repo_root()
    problems = []
    if not _documents(root):
        return [f"no markdown documents found under {root}"]
    check_links(root, problems)
    check_experiments_documented(root, problems)
    check_env_vars_read(root, problems)
    return problems


def main(argv=None):
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.check_docs",
        description="lint intra-repo documentation links, coverage and "
                    "environment variables",
    )
    parser.add_argument("--root", default=None,
                        help="checkout root (default: inferred from the "
                             "installed package location)")
    args = parser.parse_args(argv)
    problems = collect_problems(args.root)
    for problem in problems:
        print(problem)
    if problems:
        print(f"check_docs: {len(problems)} problem(s)")
        return 1
    print("check_docs: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
