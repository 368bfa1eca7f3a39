"""``python -m repro.experiments [id ...] [--fast] [--jobs N]``.

Runs experiments by id.  With ``--jobs N`` (N > 1) and more than one
experiment, whole experiments run side by side in worker processes —
each worker captures its stdout and the tables are printed in request
order, so the output is byte-identical to the serial run.
"""

import contextlib
import io
import sys

from . import RUNNERS
from ..core.parallel import parallel_map, resolve_jobs


def _run_captured(args: tuple[str, bool]) -> str:
    name, fast = args
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        RUNNERS[name](fast=fast)
    return buffer.getvalue()


def main(argv: list[str]) -> int:
    names = [name.lower() for name in argv]
    fast = "--fast" in names
    jobs = 1
    for index, name in enumerate(names):
        if name == "--jobs":
            if index + 1 >= len(names) or not names[
                index + 1
            ].lstrip("-").isdigit():
                print("--jobs requires an integer argument")
                return 2
            jobs = int(names[index + 1])
            names[index + 1] = "-"  # consumed; drop with the flags below
    names = [n for n in names if not n.startswith("-") and not n.isdigit()]
    names = names or sorted(RUNNERS)
    unknown = [name for name in names if name not in RUNNERS]
    if unknown:
        print(f"unknown experiment {unknown[0]!r}; available: "
              + ", ".join(sorted(RUNNERS)))
        return 2
    jobs = resolve_jobs(jobs)
    if jobs > 1 and len(names) > 1:
        outputs = parallel_map(
            _run_captured, [(name, fast) for name in names], jobs=jobs
        )
        for output in outputs:
            sys.stdout.write(output)
        return 0
    for name in names:
        RUNNERS[name](fast=fast)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
