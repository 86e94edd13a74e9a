"""The README's library example runs as written and does what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs_and_matches_its_comments():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n") :]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope: dict = {}
    exec(compile(block, f"{README.name} (## Library)", "exec"), scope)
    assert scope["ok"] is False
    witness = scope["witness"]
    assert (witness.s, witness.t, witness.theta, witness.epsilon) == ((), (6,), 0, 1)
