from mutants import MUTANTS, SRC


def test_every_mutant_edits_code_that_exists():
    # the runner is a tool, not a test; this keeps its list from going stale
    assert len({name for name, *_ in MUTANTS}) == len(MUTANTS)
    for name, file, old, new, cells in MUTANTS:
        text = (SRC / "utilcap" / file).read_text(encoding="utf-8")
        assert text.count(old) == 1, name
        assert old != new and cells, name
