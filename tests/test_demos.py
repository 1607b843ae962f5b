"""Each demo prints the same bytes as when its pin was taken."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# SHA-256 of each demo's stdout.
_PINS = {
    "center_and_kernel.py": "9ac89d5455cf08a52c96c301270f4f1b2c8adcda870cb2465c04a0175c3bbe2e",
    "clifford_basics.py": "1dbcf63f58626f01044faa6b7a81dced6f0d6463dda68606a94c777f67695460",
    "cohomology_extensions.py": "128556ccdcf11b7a8e0429065e5309844a041dac6f0e90ab5b422b72c957774b",
    "conjugacy_fingerprints.py": "0f8558ccf4ea9deb71a9eeb2e54a623844788789e384817a72fca615a1d1f587",
    "outer_twist.py": "ad74242bb9a40c65835676191f4cdfb43ff0b9dc2945c643b1e2c63918e0879c",
    "root_datum.py": "48c46db8df1c65d67f32ea5a68115e25c644572e966699facae9f7f85f82dd37",
    "spin_representations.py": "22df23fe35ac3c636334751b2a15a33cf8e9255e9ee82fa69bf9a83446005e59",
    "weight_multisets.py": "c9e54c61f1dce63ae6c62418469ff96dd515d8fb9ee499944c076f4b6d4c3f74",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(_PINS)


@pytest.mark.parametrize("name", sorted(_PINS))
def test_demo_output_is_pinned(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, cwd=ROOT, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == _PINS[name]
