"""Write every bundled output of syncenergy and print the SHA-256 of each file.

    python tools/bundled_digests.py OUT_DIR

For each bundled document it runs, through ``syncenergy.cli.main``:

- ``run`` with the fd and with the pll estimator (series CSV and summary);
- ``verify`` with the fd and with the pll estimator, on each run document;
- ``sweep --emit-series`` with both estimators (table, summary and the
  series of every value);
- ``scenarios list`` once.

Each command's stdout, stderr and exit code are kept as files beside its
outputs. The listing is one ``<sha256>  <path>`` line per file, sorted, with
paths relative to OUT_DIR, so the listings of two source trees, or of two
processes, compare with ``diff``. The package is imported from the ``src/``
beside this script.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from importlib import resources
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

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
    for name, entry in bundled_scenarios().items():
        with resources.as_file(entry) as path:
            command = "sweep" if "sweep" in load_document(path) else "run"
        for estimator in ("fd", "pll"):
            out = root / f"{command}_{estimator}"
            argv = [command, name, "--estimator", estimator, "--emit-series", "--out-dir", str(out)]
            _run(argv, out, name)
        if command == "run":
            _run(["verify", name], root / "verify", name)
            _run(["verify", name, "--estimator", "pll"], root / "verify_pll", name)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digests(argv: list) -> int:
    if len(argv) != 1:
        print("usage: python tools/bundled_digests.py OUT_DIR", file=sys.stderr)
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
