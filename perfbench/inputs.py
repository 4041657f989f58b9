"""Write one workload's inputs: the bundled test pattern at the given sizes and,
optionally, a PGM corpus from ``slepmoments synth``.

    python3 perfbench/inputs.py OUT_DIR '{"patterns": [256, 128], "synth": [...]}'

Both steps run in this one process, so set-up pays one package import.
"""

import json
import sys
from pathlib import Path

from slepmoments import smooth_test_image, write_pgm
from slepmoments.cli import run


def main(out: Path, spec: dict) -> int:
    out.mkdir(parents=True, exist_ok=True)
    for size in spec["patterns"]:
        (out / f"pattern{size}.pgm").write_bytes(write_pgm(smooth_test_image(size)))
    if spec["synth"]:
        return run(["synth", *spec["synth"], "--out-dir", str(out / "corpus")])
    return 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1]), json.loads(sys.argv[2])))
