import subprocess
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


_ORIGINAL = "a = 1\nb = 2\n"
_FIRST, _SECOND = (mutants.Mutant("src/fake.py", old, new, ("tests/test_fake.py",), why)
                   for old, new, why in (("a = 1", "a = 10", "first"), ("b = 2", "b = 20", "second")))


def _fake_pytest(monkeypatch, raise_on=None):
    """Fake subprocess.run for mutants, recording each call's argv, cwd, env and fake file text: the tests
    fail (exit 1) exactly when the text is mutated, and call number raise_on raises."""
    calls = []

    def run(argv, cwd, env, **kwargs):
        text = (Path(cwd) / "src/fake.py").read_text(encoding="utf-8")
        calls.append((argv, Path(cwd), env, text))
        if len(calls) == raise_on:
            raise OSError("the run failed to start")
        return subprocess.CompletedProcess(argv, int(text != _ORIGINAL))

    monkeypatch.setattr(mutants.subprocess, "run", run)
    return calls


def test_main_runs_the_baseline_and_every_mutant_in_one_copy_on_fixed_examples(monkeypatch, capsys):
    def copy(root, dest):
        (dest / "src").mkdir(parents=True)
        (dest / "src/fake.py").write_text(_ORIGINAL, encoding="utf-8")

    monkeypatch.setattr(mutants, "MUTANTS", (_FIRST, _SECOND))
    monkeypatch.setattr(mutants, "_checkout_error", lambda: None)
    monkeypatch.setattr(mutants, "copy_worktree", copy)
    calls = _fake_pytest(monkeypatch)
    assert mutants.main([]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "2 mutants, 0 survived, 0 errors"
    assert len(calls) == 3 and len({cwd for _, cwd, _, _ in calls}) == 1
    for argv, cwd, env, _ in calls:
        assert "--hypothesis-profile=ci" in argv and env["PYTHONDONTWRITEBYTECODE"] == "1"
        assert not Path(env["HYPOTHESIS_STORAGE_DIRECTORY"]).is_relative_to(cwd)
    assert [text for *_, text in calls] == [_ORIGINAL, "a = 10\nb = 2\n", "a = 1\nb = 20\n"]


@pytest.mark.parametrize("first_raises", [False, True])
def test_each_mutant_runs_on_the_original_text_with_only_itself_applied(monkeypatch, tmp_path, first_raises):
    (tmp_path / "src").mkdir()
    (tmp_path / "src/fake.py").write_text(_ORIGINAL, encoding="utf-8")
    calls = _fake_pytest(monkeypatch, raise_on=1 if first_raises else None)
    if first_raises:
        with pytest.raises(OSError):
            mutants._run(tmp_path, _FIRST)
    else:
        assert mutants._run(tmp_path, _FIRST) == 1
    assert mutants._run(tmp_path, _SECOND) == 1
    assert [text for *_, text in calls] == ["a = 10\nb = 2\n", "a = 1\nb = 20\n"]
    assert (tmp_path / "src/fake.py").read_text(encoding="utf-8") == _ORIGINAL
