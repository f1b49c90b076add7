"""Launch the benchmark's child processes from a process that stays small.

Usage: python3 -S perfbench/spawn.py   (requests on stdin, replies on stdout)

The max-RSS the kernel reports for a child also counts the memory of the
process that spawned it, up to the moment the child replaced its program.
The benchmark's own process is larger than a delball request, so it hands
every launch to this process, which imports little and stays smaller than
any request it starts.

Each request is one line of JSON: {"argv": [...], "traced": bool, "timeout": seconds}.
Each reply is one line "seconds exit_code maxrss_kib n_out n_err n_trace"
followed by that many bytes of the child's stdout, stderr and trace.  With
"traced", the child gets a pipe named by PERFBENCH_TRACE_FD.
"""

import json
import os
import selectors
import sys
import time


def launch(argv: list, traced: bool, timeout: float) -> tuple:
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    env = dict(os.environ)
    readers = [out_r, err_r]
    writers = [out_w, err_w]
    if traced:
        trace_r, trace_w = os.pipe()
        os.set_inheritable(trace_w, True)
        env["PERFBENCH_TRACE_FD"] = str(trace_w)
        readers.append(trace_r)
        writers.append(trace_w)
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_DUP2, out_w, 1),
        (os.POSIX_SPAWN_DUP2, err_w, 2),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    for fd in writers:
        os.close(fd)
    chunks = {fd: [] for fd in readers}
    with selectors.DefaultSelector() as sel:
        for fd in readers:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            remaining = start + timeout - time.perf_counter()
            events = sel.select(timeout=max(remaining, 0.0))
            if not events and remaining <= 0:
                os.kill(pid, 9)
                break
            for key, _ in events:
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    chunks[key.fd].append(chunk)
                else:
                    sel.unregister(key.fd)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    for fd in readers:
        os.close(fd)
    parts = [b"".join(chunks[fd]) for fd in readers] + [b""] * (3 - len(readers))
    return seconds, os.waitstatus_to_exitcode(status), usage.ru_maxrss, parts


def main() -> None:
    out = sys.stdout.buffer
    for line in sys.stdin.buffer:
        request = json.loads(line)
        seconds, code, maxrss, parts = launch(request["argv"], request["traced"], request["timeout"])
        header = f"{seconds!r} {code} {maxrss} " + " ".join(str(len(p)) for p in parts)
        out.write(header.encode() + b"\n" + b"".join(parts))
        out.flush()


if __name__ == "__main__":
    main()
