"""Import probe, run by the benchmark's set-up as its own process.

Run it under `python -X importtime`: it imports `fbgvib.cli` (the whole
package, as every CLI process does) and then `scipy.signal`, which is a
no-op when the package already pulled it in, so the import-time log always
holds one line for it. It prints one JSON line with the package import
time and the interpreter and library versions.
"""

import json
import platform
import time

start = time.perf_counter()
import fbgvib.cli  # noqa: E402,F401

done = time.perf_counter()

import numpy  # noqa: E402
import scipy  # noqa: E402
import scipy.signal  # noqa: E402,F401

print(json.dumps({
    "fbgvib_s": done - start,
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "fbgvib": fbgvib.__version__,
}))
