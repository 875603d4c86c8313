"""Fresh-interpreter probe: time the import of ``wallscale.cli``, then one
cold pass.

    python3 wsbench/child.py ROOT T_SPAWN WORKLOAD CORPUS_DIR OUT_DIR [ARG...]

``T_SPAWN`` is the parent's ``time.monotonic()`` just before it started this
process; on Linux that clock is shared by all processes, so the set-up time
below includes interpreter start-up.  Prints one JSON object on its last line.
Nothing but ``sys`` and ``time`` is imported before ``wallscale.cli``.
"""

import sys
import time


def main() -> None:
    root, t_spawn, workload, corpus_dir, out_dir, *args = sys.argv[1:]
    sys.path.insert(0, root + "/src")
    import wallscale.cli
    t_ready = time.monotonic()

    import json
    import passes

    corpus = None if corpus_dir == "-" else corpus_dir
    out = None if out_dir == "-" else out_dir
    result = passes.run_pass(
        wallscale.cli, passes.pass_argvs(workload, corpus, args, out), out)
    print(json.dumps({"setup_s": t_ready - float(t_spawn),
                      "pass": result.to_json()}))


if __name__ == "__main__":
    main()
