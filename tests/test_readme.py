import re
from pathlib import Path

from weyltype.probes import FULL_SPAN_MOD_F1

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs():
    text = README.read_text()
    section = text[text.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["verdict"].kind == FULL_SPAN_MOD_F1
