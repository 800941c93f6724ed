"""Write every bundled output of syncenergy and print the SHA-256 of each file.

    python tools/bundled_digests.py OUT_DIR
    python tools/bundled_digests.py --against REF

For each bundled document it runs, through ``syncenergy.cli.main``:

- ``run`` with the fd and with the pll estimator (series CSV and summary);
- ``verify`` on each run document;
- ``sweep --emit-series`` with both estimators (table, summary and the
  series of every value);
- ``scenarios list`` once.

Each command's stdout, stderr and exit code are kept as files beside its
outputs. The listing is one ``<sha256>  <path>`` line per file, sorted, with
paths relative to OUT_DIR, so the listings of two source trees, or of two
processes, compare with ``diff``. The package is imported from the ``src/``
beside this script.

With ``--against REF`` it extracts the git revision REF into a temporary
directory with ``git archive`` and runs this script's commands in a fresh
process on that tree's package and in another on this one. It prints each
file whose bytes differ, or that is written on one side only, and exits 1;
or it prints that all files are identical and exits 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve()
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from syncenergy.cli import bundled_scenarios, main  # noqa: E402
from syncenergy.config import load_document  # noqa: E402


def _run(argv: list, out: Path, stem: str) -> None:
    """Run the CLI on ``argv``; keep its stdout, stderr and exit code under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    (out / f"{stem}.stdout").write_text(stdout.getvalue(), encoding="utf-8")
    (out / f"{stem}.stderr").write_text(stderr.getvalue(), encoding="utf-8")
    (out / f"{stem}.exit").write_text(f"{code}\n", encoding="utf-8")


def write_outputs(root: Path) -> None:
    """Run every command of the module docstring, writing under ``root``."""
    _run(["scenarios", "list"], root / "scenarios", "list")
    for name, path in bundled_scenarios().items():
        command = "sweep" if "sweep" in load_document(path) else "run"
        for estimator in ("fd", "pll"):
            out = root / f"{command}_{estimator}"
            argv = [command, name, "--estimator", estimator, "--emit-series", "--out-dir", str(out)]
            _run(argv, out, name)
        if command == "run":
            _run(["verify", name], root / "verify", name)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _listing(script: Path, out: Path) -> dict:
    """Path -> SHA-256 of every file that ``script``, run in a fresh process, writes under ``out``."""
    text = subprocess.run([sys.executable, str(script), str(out)], check=True,
                          stdout=subprocess.PIPE, text=True).stdout
    return {path: digest for digest, path in (line.split("  ", 1) for line in text.splitlines())}


def against(ref: str) -> int:
    """Compare this tree's outputs with those of the git revision ``ref``."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp, "ref")
        tree.mkdir()
        try:
            archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref],
                                     check=True, stdout=subprocess.PIPE).stdout
            subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
            script = tree / "tools" / HERE.name
            script.parent.mkdir(exist_ok=True)
            shutil.copyfile(HERE, script)  # the same commands on both trees
            theirs = _listing(script, Path(tmp, "ref_out"))
            ours = _listing(HERE, Path(tmp, "out"))
        except subprocess.CalledProcessError as exc:
            print(f"error: {' '.join(exc.cmd)} exited {exc.returncode}", file=sys.stderr)
            return 2
    changed = sorted(path for path in theirs.keys() | ours.keys() if theirs.get(path) != ours.get(path))
    for path in changed:
        side = "" if path in theirs and path in ours else (" (only here)" if path in ours else f" (only in {ref})")
        print(f"{path}{side}")
    total = len(theirs.keys() | ours.keys())
    print(f"{len(changed)} of {total} files differ from {ref}" if changed
          else f"all {total} files identical to {ref}")
    return 1 if changed else 0


def digests(argv: list) -> int:
    if len(argv) == 2 and argv[0] == "--against":
        return against(argv[1])
    if len(argv) != 1 or argv[0].startswith("-"):
        print("usage: python tools/bundled_digests.py OUT_DIR | --against REF", file=sys.stderr)
        return 2
    root = Path(argv[0])
    if root.exists() and any(root.iterdir()):
        print(f"error: {root} is not empty", file=sys.stderr)
        return 2
    write_outputs(root)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        print(f"{sha256(path)}  {path.relative_to(root).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(digests(sys.argv[1:]))
