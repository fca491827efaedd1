from pathlib import Path

import mutants

ROOT = Path(__file__).resolve().parents[1]


def test_every_mutant_text_occurs_once_in_src():
    sources = {path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
               for path in (ROOT / "src").rglob("*.py")}
    for m in mutants.MUTANTS:
        assert m.old != m.new and m.tests, m.why
        assert [name for name, text in sources.items() for _ in range(text.count(m.old))] == [m.file], m.why
        assert all((ROOT / t).is_file() for t in m.tests), m.why
