from pathlib import Path

import pytest

import mutants

ROOT = Path(__file__).resolve().parents[1]


def test_every_mutant_text_occurs_once_in_src():
    sources = {path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
               for path in (ROOT / "src").rglob("*.py")}
    for m in mutants.MUTANTS:
        assert m.old != m.new and m.tests, m.why
        assert [name for name, text in sources.items() for _ in range(text.count(m.old))] == [m.file], m.why
        assert all((ROOT / t).is_file() for t in m.tests), m.why


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["--bogus"], 2), (["extra"], 2)],
                         ids=["help", "unknown-option", "extra-argument"])
def test_main_parses_its_arguments_before_copying_anything(monkeypatch, capsys, argv, code):
    def forbidden(*args):
        raise AssertionError("the tree was copied")

    monkeypatch.setattr(mutants, "copy_worktree", forbidden)
    with pytest.raises(SystemExit) as exc:
        mutants.main(argv)
    assert exc.value.code == code
    captured = capsys.readouterr()
    assert (captured.out if code == 0 else captured.err).startswith("usage:")


def test_main_outside_a_git_checkout_exits_2_before_copying_anything(monkeypatch, capsys, tmp_path):
    def forbidden(*args):
        raise AssertionError("the tree was copied")

    # git looks for a repository no higher than tmp_path's parent
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    monkeypatch.setattr(mutants, "ROOT", tmp_path)
    monkeypatch.setattr(mutants, "copy_worktree", forbidden)
    assert mutants.main([]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {tmp_path} is not the top of a git checkout")
