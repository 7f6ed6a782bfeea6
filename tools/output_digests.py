"""Write driftrec's output comparison set and print one sha256 per file.

    python3 tools/output_digests.py OUT

OUT must be absent or empty.  The set is:

- every preset at its defaults (`driftrec suite`);
- ex1a on a 400x400 solver grid;
- ex3e and ex3f at noise seeds 7, 11, 13 and 31;
- ex3e with a fixed lambda of 1e24 on 2001 data points;
- `driftrec forward ex1a --out`;
- `driftrec mollify ex3e --noise 0.01 --seed 7 --data-points 2001 --out`, once
  with the discrepancy search and once with a fixed lambda of 1e24.

Each line reads `<sha256>  <path relative to OUT>`, sorted by path, so two
runs into different directories diff clean exactly when every file is
byte-identical.  driftrec is imported from this checkout's `src/`, so a copy
of this script placed in another checkout digests that checkout's code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from driftrec.cli import main as cli_main  # noqa: E402

NOISY_SEEDS = (7, 11, 13, 31)


def _runs(out: Path) -> list[list[str]]:
    """The CLI invocations of the comparison set, each into its own directory."""
    runs = [["suite", "--out", str(out / "suite")],
            ["experiment", "ex1a", "--grid-m", "400", "--grid-n", "400",
             "--out", str(out / "ex1a-400x400")]]
    for name in ("ex3e", "ex3f"):
        for seed in NOISY_SEEDS:
            runs.append(["experiment", name, "--seed", str(seed),
                         "--out", str(out / f"{name}-seed{seed}")])
    runs.append(["experiment", "ex3e", "--data-points", "2001", "--lambda", "1e24", "--seed", "7",
                 "--out", str(out / "ex3e-lambda1e24")])
    runs.append(["forward", "ex1a", "--out", str(out / "forward-ex1a")])
    runs.append(["mollify", "ex3e", "--noise", "0.01", "--seed", "7", "--data-points", "2001",
                 "--out", str(out / "mollify-ex3e")])
    runs.append(["mollify", "ex3e", "--noise", "0.01", "--seed", "7", "--data-points", "2001",
                 "--lambda", "1e24", "--out", str(out / "mollify-ex3e-lambda1e24")])
    return runs


def write_set(out: Path) -> None:
    for argv in _runs(out):
        # the CLI's report lines name OUT; only the files are compared
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv)
        if code != 0:
            raise SystemExit(f"driftrec {' '.join(argv)} exited with {code}")


def digests(out: Path) -> list[str]:
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out).as_posix()}"
            for path in sorted(p for p in out.rglob("*") if p.is_file())]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/output_digests.py OUT", file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    write_set(out)
    print("\n".join(digests(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
