#!/usr/bin/env python3
"""Check that every metric name has one registration site.

Fails when
  * a metric name literal passed to counter(...), gauge(...) or
    histogram(...) appears at more than one site under src/, or
  * a name that perfbench/src/probe.cpp reads is registered nowhere under
    src/ (the registry would hand perfbench a fresh zero metric, so a
    rename would silently zero its per-layer numbers).

A site is a call whose whole first argument is one string literal. Names
assembled at run time (obs.health.signal_flips.<signal>, the wire
decoder's per-fault counters) are out of this check's reach.

Usage: check_metric_names.py [REPO_ROOT]   (default: the parent of ci/)
Exits nonzero listing every violation.
"""

import pathlib
import re
import sys

# counter("a.b"), gauge(\n "a.b"), histogram("a.b", bounds) ...
SITE_RE = re.compile(r'\b(counter|gauge|histogram)\(\s*"([^"\\]+)"\s*[,)]')
# ... plus perfbench's own hist_sum("a.b") read helper.
READ_RE = re.compile(
    r'\b(counter|gauge|histogram|hist_sum)\(\s*"([^"\\]+)"\s*[,)]')


def sites(path: pathlib.Path, root: pathlib.Path, regex: re.Pattern):
    """Yield (name, "file:line") for every literal-name call in `path`."""
    text = path.read_text()
    for m in regex.finditer(text):
        line = text.count("\n", 0, m.start()) + 1
        yield m.group(2), f"{path.relative_to(root)}:{line}"


def main() -> int:
    root = (pathlib.Path(sys.argv[1]) if len(sys.argv) > 1
            else pathlib.Path(__file__).resolve().parent.parent)
    src = root / "src"
    probe = root / "perfbench" / "src" / "probe.cpp"
    if not src.is_dir() or not probe.is_file():
        print(f"check_metric_names: no src/ or {probe} under {root}",
              file=sys.stderr)
        return 2

    registered = {}
    for path in sorted(src.rglob("*")):
        if path.suffix in (".cpp", ".hpp"):
            for name, where in sites(path, root, SITE_RE):
                registered.setdefault(name, []).append(where)

    errors = []
    for name, where in sorted(registered.items()):
        if len(where) > 1:
            errors.append(f"{name} is registered at {len(where)} sites: "
                          + ", ".join(where))
    read = sorted(set(sites(probe, root, READ_RE)))
    for name, where in read:
        if name not in registered:
            errors.append(f"{where} reads {name}, which nothing under src/ "
                          "registers")

    for e in errors:
        print(f"check_metric_names: FAIL: {e}", file=sys.stderr)
    if errors:
        return 1
    print(f"check_metric_names: {len(registered)} names with one site each; "
          f"all {len({n for n, _ in read})} names perfbench reads are "
          "registered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
