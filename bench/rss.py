"""The calling process's own peak resident set size.

``ru_maxrss`` of a child counts the pages of the parent it was forked from,
so the benchmark parent's size would be a floor under every child's figure.
``VmHWM`` belongs to the address space the child got at exec: only its own.
"""


def peak_rss_mb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return None
