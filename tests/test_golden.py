"""The golden report corpus: every case's transcript must match its recorded bytes.

The cases and the recorder live in tests/golden/; see record.py there.
"""

import pytest

from golden.record import HERE, expected_path, load_manifest, transcript

MANIFEST = load_manifest()


@pytest.mark.parametrize("case", MANIFEST["cases"], ids=lambda case: case["name"])
def test_golden_transcript(case, tmp_path):
    # exit code, stderr, stdout and written files, byte for byte, timing excepted
    assert transcript(case, MANIFEST["inputs"], tmp_path) == expected_path(case).read_text(encoding="utf-8")


def test_manifest_matches_the_directory():
    # a renamed or dropped case leaves no transcript that nothing compares, and no input that nothing reads;
    # no two cases run the same steps, so no pin is held twice
    names = [case["name"] for case in MANIFEST["cases"]]
    assert len(names) == len(set(names))
    steps = [repr(case["steps"]) for case in MANIFEST["cases"]]
    assert len(steps) == len(set(steps))
    assert sorted(HERE.glob("*.txt")) == sorted(expected_path(case) for case in MANIFEST["cases"])
    read = {arg for case in MANIFEST["cases"] for argv in case["steps"] for arg in argv}
    assert sorted(set(MANIFEST["inputs"]) - read) == []
