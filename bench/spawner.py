"""Start the benchmark's child processes from a small process of their own.

The peak resident size the kernel reports for a child includes the
address space of the process that started it, which the child borrows
or copies until it execs.  Started from the benchmark, which holds every
parsed network, a child would seem as large as the benchmark.  This
process stays small, so the peaks it reports are the children's own.

    python3 bench/spawner.py <timeout seconds>

Reads one JSON list of arguments per line on standard input, runs them
in its own working directory and environment, and answers each with one
JSON line: ``returncode``, ``stdout``, ``stderr`` and ``maxrss_kb``, the
largest peak of any child so far, or ``error`` if the child could not
run.  Ends at the end of its input.
"""

import json
import resource
import subprocess
import sys


def main() -> int:
    timeout = float(sys.argv[1])
    for line in sys.stdin:
        try:
            p = subprocess.run(json.loads(line), capture_output=True, text=True, timeout=timeout)
            answer = {"returncode": p.returncode, "stdout": p.stdout, "stderr": p.stderr}
        except (OSError, subprocess.SubprocessError) as exc:
            answer = {"error": repr(exc)}
        answer["maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        sys.stdout.write(json.dumps(answer) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
