#!/usr/bin/env python3
"""Every CLI report of the bundled fixtures, one file per fixture x command
x format, so two versions of the package compare with `diff -r`.

Usage: python scripts/fixture_reports.py OUTDIR

A report goes to OUTDIR/<fixture>.<command>.<format>; a combination the CLI
refuses writes OUTDIR/<fixture>.<command>.<format>.exit holding its exit
code and error lines instead.  The commands run in this one process.
"""
import argparse
import contextlib
import io
from importlib import resources
from pathlib import Path

from stickygeom import cli


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("outdir", type=Path)
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)
    fixtures = sorted(f.name for f in (resources.files("stickygeom") / "fixtures")
                      .iterdir() if f.name.endswith(".json"))
    for name in fixtures:
        for cmd in cli.COMMANDS:
            for fmt in ("json", "csv"):
                out = args.outdir / f"{name[:-len('.json')]}.{cmd}.{fmt}"
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = cli.main([cmd, "--config", cli.fixture_path(name),
                                     "--out", str(out), "--format", fmt])
                if code != 0:
                    out.with_name(out.name + ".exit").write_text(
                        f"exit {code}\n{err.getvalue()}")


if __name__ == "__main__":
    main()
