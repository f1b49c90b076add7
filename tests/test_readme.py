"""README's library example runs, and gives the values its comments name."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    """The python block under README's ``## Library`` heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_library_block_gives_its_commented_values():
    block = library_block()
    namespace = {}
    exec(block, namespace)
    # A comment that opens with a literal (up to a colon) names the value of
    # its line's expression; other comments describe the value in words.
    named = []
    for line in block.splitlines():
        code, _, comment = line.partition("  # ")
        try:
            value = ast.literal_eval(comment.split(":", 1)[0])
        except (SyntaxError, ValueError):
            continue
        assert eval(code, namespace) == value, line
        named.append(value)
    assert named == [5, 5, [1, 3, 5, 6, 5, 3, 1], [3, 5]]
