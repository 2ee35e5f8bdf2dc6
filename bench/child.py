"""One benchmark child process: import ``pmm.cli``, run one experiment, report.

Usage: python3 child.py RESULT_JSON SPAWN_TIME TRACE_NPZ|- [CLI_ARG ...]

``SPAWN_TIME`` is the parent's ``time.time()`` just before it started this
process, so ``setup_s`` runs from spawn to the end of ``import pmm.cli``.
With no CLI arguments the child only imports. With a trace path the public
functions of ``pmm`` are wrapped after the import and the spans are written
to that path when the experiment ends.
"""

import json
import resource
import sys
import time
import traceback


def main() -> int:
    result_path, spawn_time, trace_path = sys.argv[1:4]
    cli_args = sys.argv[4:]
    import pmm.cli

    setup_s = time.time() - float(spawn_time)
    tracer = None
    if trace_path != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    rc = 0
    t0 = time.perf_counter()
    try:
        if cli_args:
            rc = pmm.cli.main(cli_args)
    except Exception:
        traceback.print_exc()
        rc = 1
    compute_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.dump(trace_path)
    result = {
        "setup_s": setup_s,
        "compute_s": compute_s,
        "rc": rc,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "pmm_file": pmm.__file__,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
