"""Time the set-up one CLI invocation pays, in a fresh interpreter.

    python3 setup_probe.py <src dir> '<json: {"configs": [...], "argv": [...]}>'

From before ``import subabsorb`` to the end of: loading every config of
the workload, then the smallest CLI call of the workload's kind, which
finishes the lazy one-time set-up (numpy/scipy imports, the first BLAS
call, scipy.special on the first ramped pulse).  Prints one JSON line
with ``setup_s`` and the call's exit code.
"""

import contextlib
import io
import json
import sys
import time


def main():
    start = time.perf_counter()
    src, spec = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    from subabsorb import cli, recipes

    for path in spec["configs"]:
        recipes.load_recipe(path)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(spec["argv"])
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "exit": code}))
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
