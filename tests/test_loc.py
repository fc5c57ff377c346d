"""tools/loc.py on a synthetic module: each line falls in one kind."""

import loc

SOURCE = '''"""A module docstring
over two lines."""

import os  # a trailing comment is code


# a comment alone
class Thing:
    """One line."""

    def method(self):
        """Two
        lines."""
        text = """not a docstring:
        an assignment"""
        return text


def bare():
    return os.sep
'''


def test_each_line_has_one_kind():
    counts = loc.count(SOURCE)
    assert counts == {"total": 20, "docstring": 5, "comment": 1, "blank": 6, "code": 8}
    assert sum(counts[kind] for kind in loc.KINDS) == counts["total"]


def test_rows_and_total(tmp_path, monkeypatch, capsys):
    package = tmp_path / "src" / "vexpf"
    package.mkdir(parents=True)
    (package / "a.py").write_text(SOURCE)
    (package / "b.py").write_text("x = 1\n")
    monkeypatch.setattr(loc, "ROOT", tmp_path)
    assert loc.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["module", "total", "docstring", "comment", "blank", "code"]
    assert lines[1].split() == ["a", "20", "5", "1", "6", "8"]
    assert lines[2].split() == ["b", "1", "0", "0", "0", "1"]
    assert lines[3].split() == ["total", "21", "5", "1", "6", "9"]
