"""The golden report corpus: every case's transcript must match its recorded bytes.

The cases and the recorder live in tests/golden/; see record.py there.
"""

import pytest

from golden.record import expected_path, load_manifest, transcript

MANIFEST = load_manifest()


@pytest.mark.parametrize("case", MANIFEST["cases"], ids=lambda case: case["name"])
def test_golden_transcript(case, tmp_path):
    # exit code, stderr, stdout and written files, byte for byte, timing excepted
    assert transcript(case, MANIFEST["inputs"], tmp_path) == expected_path(case).read_text(encoding="utf-8")
