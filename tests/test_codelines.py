"""``tools/codelines.py`` on one small module whose code lines are marked by
hand."""

from __future__ import annotations

import codelines

# each line that counts ends in "# code"; docstrings, comments, blank lines
# and the lone indents and dedents of a block do not
FIXTURE = '''"""Module docstring,
over two lines."""

import sys  # code

# a comment alone


class Box:  # code
    """Class docstring."""

    size = (1,  # code
            2)  # code

    def get(self):  # code
        """Function docstring,

        over three lines."""
        text = """a string that is  # code
        no docstring"""  # code
        "a string after the first statement"  # code
        return text  # code
'''


def test_a_module_counts_its_marked_lines(tmp_path, capsys):
    expected = sum(line.endswith("# code") for line in FIXTURE.splitlines())
    assert expected == 9
    assert codelines.code_lines(FIXTURE) == expected
    path = tmp_path / "box.py"
    path.write_text(FIXTURE, encoding="utf-8")
    assert codelines.main([str(path), str(path)]) == 0
    assert capsys.readouterr().out == f"     9 {path}\n     9 {path}\n    18 total\n"
