import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs():
    # The first python block is the Library sketch; its asserts are its claims.
    block = re.search(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)
    assert block is not None
    exec(compile(block.group(1), str(README), "exec"), {})
