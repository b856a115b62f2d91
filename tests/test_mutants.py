"""The mutant table stays applicable: every old text occurs once under src.

The mutants themselves run outside tier-1 (``python tools/mutants.py``), as
each one takes seconds to tens of seconds.
"""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_old_text_occurs_exactly_once_under_src():
    sources = {p.relative_to(ROOT).as_posix(): p.read_text(encoding="utf-8")
               for p in (ROOT / "src").rglob("*.py")}
    for m in mutants.MUTANTS:
        found = {path: text.count(m.old) for path, text in sources.items() if m.old in text}
        assert found == {m.path: 1}, m.name


def test_names_are_unique_and_every_named_test_exists():
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        for test in m.tests:
            path, *_, name = test.split("::")
            assert re.search(rf"def {name}\(", (ROOT / path).read_text(encoding="utf-8")), test
