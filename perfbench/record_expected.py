"""Record the facts the correctness gate expects, from the package in ./src:

    python3 perfbench/record_expected.py

Run it from the repository root at a commit whose answers are trusted.  The
facts do not depend on the seed, because they do not change when a design's
points are relabelled; seed 0 is used.  Every operation is reported on
stderr as a mismatch against the empty recording it replaces.
"""

import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS, Pass, import_package

if __name__ == "__main__":
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    bf = import_package(src)
    out = {}
    for name, cls in WORKLOADS.items():
        workload = cls()
        workdir = Path(tempfile.mkdtemp(prefix="record-", dir=Path.cwd()))
        try:
            workload.setup(bf, workdir, random.Random(0))
            p = Pass({}, threads=1)
            workload.run(p, workdir)
        finally:
            shutil.rmtree(workdir)
        out[name] = p.facts
    Path(__file__).with_name("expected.json").write_text(
        json.dumps(out, indent=1, sort_keys=True) + "\n")
