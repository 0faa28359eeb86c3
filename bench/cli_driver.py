"""Run one ``btkit`` command line as ``python -m btkit.cli`` does; record its memory.

    python bench/cli_driver.py MEMORY_FILE -- ARGV...
    python bench/cli_driver.py MEMORY_FILE SPANS_FILE OP_ID -- ARGV...

Same stdout, stderr and exit code as ``python -m btkit.cli ARGV...``.  Writes
the process's peak resident memory less its file-backed pages, in kB, to
MEMORY_FILE.  Given SPANS_FILE, it installs the benchmark's spans around the
call and writes them to SPANS_FILE as JSON.  ``btkit`` must be importable,
e.g. through PYTHONPATH.
"""

import runpy
import sys


def private_peak_kb() -> int:
    """Peak resident memory of this process less its file-backed pages, in kB.

    Whether shared-library pages are resident is up to the page cache: fresh
    processes of one command line read 57-71 MB of ``ru_maxrss`` in different
    periods of one machine, with the same anonymous memory.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        fields = dict(line.split(":", 1) for line in fh)
    return int(fields["VmHWM"].split()[0]) - int(fields["RssFile"].split()[0])


def traced(spans_file: str, op: int, argv: list) -> int:
    from spans import Tracer

    import btkit.cli

    tracer = Tracer()
    tracer.op = op
    tracer.install()
    try:
        return btkit.cli.main(argv)
    finally:
        tracer.dump(spans_file)


def main() -> None:
    split = sys.argv.index("--")
    memory_file, *trace = sys.argv[1:split]
    argv = sys.argv[split + 1:]
    try:
        if trace:
            sys.exit(traced(trace[0], int(trace[1]), argv))
        sys.argv = sys.argv[:1] + argv
        runpy.run_module("btkit.cli", run_name="__main__", alter_sys=True)
    finally:
        with open(memory_file, "w", encoding="ascii") as fh:
            fh.write(f"{private_peak_kb()}\n")


if __name__ == "__main__":
    main()
