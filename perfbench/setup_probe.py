"""One cold set-up of facshare in a fresh interpreter, timed from inside it.

Usage: python3 setup_probe.py SRC_DIR WARMUP_ARGVS_JSON

Times ``import facshare.cli`` and then the warm-up ops (a JSON list of CLI
argvs), and prints ``{"import_s": ..., "warmup_s": ..., "codes": [...]}``.
Interpreter start-up is not included: it is the same for any program.
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path


def main() -> int:
    src, argvs_path = sys.argv[1], sys.argv[2]
    argvs = json.loads(Path(argvs_path).read_text(encoding="utf-8"))
    sys.path.insert(0, src)
    started = time.perf_counter()
    import facshare.cli
    imported = time.perf_counter()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        codes = [facshare.cli.main(argv) for argv in argvs]
    warmed = time.perf_counter()
    print(json.dumps({"import_s": imported - started, "warmup_s": warmed - imported,
                      "codes": codes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
