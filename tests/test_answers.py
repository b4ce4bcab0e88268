"""Every answer of ``tests/answers.py`` against its stored digest."""

import hashlib
import io
import json
from pathlib import Path

import answers


def test_answers_match_the_golden():
    """The output of ``tests/answers.py`` is bit-identical to the stored
    run: its sha256 is ``answers_sha256`` in ``tests/cover_goldens.json``."""
    out = io.StringIO()
    answers.main(out)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    golden = json.loads((Path(__file__).parent / "cover_goldens.json").read_text())
    assert digest == golden["answers_sha256"], (
        "an answer changed: diff the output of `PYTHONPATH=src:tests python "
        "tests/answers.py` at the parent commit and at this change"
    )
