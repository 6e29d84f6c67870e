import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs():
    # the first python block under "## Library use", run as written, so the
    # documented calls stay in step with the code
    section = README.read_text().split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, f"{README} (Library use)", "exec"), namespace)
    assert namespace["medians"].shape == (2, 20, 500)
