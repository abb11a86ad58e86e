"""Fixed reference load for measuring the host's current speed.

run.py times this script as its own process right before and right
after every timed command and every set-up, and divides the command's
wall time by it (see ``run.Sample.norm_s``). It does what every modkit
command does, independent of modkit's code: start Python, import numpy
and json, and run a fixed bit of pure-Python text processing. On a
shared host whose cores slow down for minutes at a time, the ratio stays
put while the raw times move by up to 1.6x.

Do not change it: a changed reference changes every normalised metric.
"""

import json
import re

import numpy

WORDS = [f"Wd{i % 97}x{i % 13}" for i in range(4000)]
TEXT = " ".join(WORDS)
STRIP = re.compile(r"[x0-3]")

counts: dict[str, int] = {}
for _ in range(8):
    for word in STRIP.sub("", TEXT.lower()).split():
        counts[word] = counts.get(word, 0) + 1
json.dumps(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))
numpy.ones((64, 64)) @ numpy.ones((64, 64))
