"""Fixed amount of interpreter work, run as a fresh process around every request.

The host's speed drifts by tens of percent within seconds, so ``run.py``
scales each request's time by how long this task's work took just before
and just after it, and each ``--help`` launch by how long this whole
process took.  It shares nothing with the delball package: interpreter
start-up, then rows of Pascal's triangle by big-integer list comprehensions,
as in the DP row.  Prints the seconds the work took.
"""

import time

ROWS = 800

start = time.perf_counter()
row = [1]
for _ in range(ROWS):
    row = [a + b for a, b in zip(row + [0], [0] + row)]
if sum(row) != 1 << ROWS:
    raise SystemExit("calibration arithmetic is wrong")
print(time.perf_counter() - start)
