"""The committed mutation list stays applicable: each mutant's old text
occurs exactly once in its file, and its tests exist.  The mutants
themselves run only under ``python tests/mutation/mutate.py``."""

from mutate import MUTANTS, ROOT


def test_each_old_text_occurs_exactly_once():
    counts = {m.name: (ROOT / m.file).read_text().count(m.old)
              for m in MUTANTS}
    assert {name: n for name, n in counts.items() if n != 1} == {}


def test_each_mutant_is_whole_and_named_once():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS) >= 30
    for m in MUTANTS:
        assert m.old != m.new and m.breaks and m.tests, m.name
        for test in m.tests:
            path, function = test.split("::")
            assert f"def {function}(" in (ROOT / path).read_text(), test
