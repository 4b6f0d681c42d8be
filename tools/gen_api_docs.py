#!/usr/bin/env python
"""Render the repro API reference to ``docs/api/`` (``make docs``).

Uses `pdoc <https://pdoc.dev>`_ when it is importable; otherwise falls
back to a small stdlib generator (``inspect`` + ``importlib``) that
writes one Markdown file per module — module docstring, then every
public class with its public methods and every public function, each
with its signature and docstring.  The fallback keeps ``make docs``
working on the pinned toolchain, which does not ship pdoc.

Usage::

    PYTHONPATH=src python tools/gen_api_docs.py [--out docs/api]
    PYTHONPATH=src python tools/gen_api_docs.py --check   # CI drift gate
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pathlib
import pkgutil
import shutil
import subprocess
import sys

#: The packages the ARCHITECTURE book covers, in reading order.
PACKAGES = (
    "repro.analysis",
    "repro.analysis.checkers",
    "repro.geometry",
    "repro.grid",
    "repro.rtree",
    "repro.core",
    "repro.shard",
    "repro.robustness",
    "repro.perf",
    "repro.obs",
    "repro.serve",
    "repro.rnn",
    "repro.monitors",
    "repro.mobility",
    "repro.bench",
)


def iter_modules(package_name: str):
    """Yield the package module plus its direct submodules, imported."""
    pkg = importlib.import_module(package_name)
    yield pkg
    for info in sorted(pkgutil.iter_modules(pkg.__path__), key=lambda i: i.name):
        if info.name.startswith("_"):
            continue
        yield importlib.import_module(f"{package_name}.{info.name}")


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _doc(obj) -> str:
    return inspect.getdoc(obj) or "*(undocumented)*"


def _public_members(module):
    """(classes, functions) defined in (not imported into) the module."""
    classes, functions = [], []
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            classes.append((name, obj))
        elif inspect.isfunction(obj):
            functions.append((name, obj))
    return classes, functions


def render_module(module) -> str:
    """One module's Markdown page."""
    lines = [f"# `{module.__name__}`", "", _doc(module), ""]
    classes, functions = _public_members(module)
    for name, cls in classes:
        lines += [f"## class `{name}`", "", _doc(cls), ""]
        for mname, meth in sorted(vars(cls).items()):
            if mname.startswith("_"):
                continue
            func = meth.__func__ if isinstance(meth, (classmethod, staticmethod)) else meth
            if isinstance(meth, property):
                lines += [f"### `{name}.{mname}` *(property)*", "",
                          _doc(meth.fget), ""]
            elif inspect.isfunction(func):
                lines += [f"### `{name}.{mname}{_signature(func)}`", "",
                          _doc(func), ""]
    for name, func in functions:
        lines += [f"## `{name}{_signature(func)}`", "", _doc(func), ""]
    return "\n".join(lines) + "\n"


def render_index(out: pathlib.Path, pages: list[tuple[str, str]]) -> None:
    """Write the docs/api landing page linking every module page."""
    lines = [
        "# repro API reference",
        "",
        "Generated by `make docs` (`tools/gen_api_docs.py`). Packages in",
        "the same order as [`docs/ARCHITECTURE.md`](../ARCHITECTURE.md):",
        "",
    ]
    current_pkg = None
    for module_name, filename in pages:
        pkg = ".".join(module_name.split(".")[:2])
        if pkg != current_pkg:
            current_pkg = pkg
            lines.append(f"\n## `{pkg}`\n")
        lines.append(f"- [`{module_name}`]({filename})")
    (out / "index.md").write_text("\n".join(lines) + "\n")


def generate_fallback(out: pathlib.Path) -> int:
    """The stdlib generator: one Markdown page per module."""
    pages: list[tuple[str, str]] = []
    for package in PACKAGES:
        for module in iter_modules(package):
            filename = module.__name__.replace(".", "_") + ".md"
            (out / filename).write_text(render_module(module))
            pages.append((module.__name__, filename))
    render_index(out, pages)
    print(f"[docs] stdlib generator: wrote {len(pages) + 1} pages to {out}")
    return 0


def generate_pdoc(out: pathlib.Path) -> int:
    """Render HTML with pdoc (preferred when installed)."""
    cmd = [sys.executable, "-m", "pdoc", "--no-show-source",
           "-o", str(out), "repro"]
    print(f"[docs] pdoc: {' '.join(cmd)}")
    return subprocess.call(cmd)


def check_drift(out: pathlib.Path) -> int:
    """Regenerate into a temp dir and diff against ``out`` (CI gate).

    Always uses the stdlib fallback generator — the checked-in pages
    are the fallback's output, so the comparison is deterministic
    whether or not pdoc happens to be installed.  Exits non-zero
    listing every missing, stale, or orphaned page.
    """
    import tempfile

    with tempfile.TemporaryDirectory() as td:
        tmp = pathlib.Path(td)
        generate_fallback(tmp)
        fresh = {p.name: p.read_text() for p in sorted(tmp.glob("*.md"))}
    checked_in = {p.name: p.read_text() for p in sorted(out.glob("*.md"))}
    problems = []
    for name in sorted(set(fresh) - set(checked_in)):
        problems.append(f"missing page: {out / name}")
    for name in sorted(set(checked_in) - set(fresh)):
        problems.append(f"orphaned page (module gone?): {out / name}")
    for name in sorted(set(fresh) & set(checked_in)):
        if fresh[name] != checked_in[name]:
            problems.append(f"stale page: {out / name}")
    if problems:
        for p in problems:
            print(f"[docs] {p}", file=sys.stderr)
        print(
            f"[docs] docs/api drifted from the source tree: run "
            f"`make docs` and commit the result",
            file=sys.stderr,
        )
        return 1
    print(f"[docs] {len(fresh)} pages in {out} are current")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="docs/api", type=pathlib.Path,
                        help="output directory (default: %(default)s)")
    parser.add_argument("--force-fallback", action="store_true",
                        help="use the stdlib generator even if pdoc exists")
    parser.add_argument("--check", action="store_true",
                        help="verify the checked-in pages match a fresh "
                             "regeneration; fail listing any drift")
    args = parser.parse_args(argv)
    if args.check:
        return check_drift(args.out)
    if args.out.exists():
        shutil.rmtree(args.out)
    args.out.mkdir(parents=True)
    if not args.force_fallback:
        try:
            importlib.import_module("pdoc")
        except ImportError:
            pass
        else:
            return generate_pdoc(args.out)
    return generate_fallback(args.out)


if __name__ == "__main__":
    raise SystemExit(main())
