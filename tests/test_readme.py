import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_code() -> str:
    """The one ```python fence under the README's "## Library quickstart"."""
    text = README.read_text()
    section = text.split("\n## Library quickstart\n", 1)[1].split("\n## ", 1)[0]
    fences = re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)
    assert len(fences) == 1, f"expected one python fence, found {len(fences)}"
    return fences[0]


def test_library_quickstart_runs():
    # pyproject's filterwarnings = ["error"] turns any warning into a failure
    exec(compile(quickstart_code(), f"{README}:Library quickstart", "exec"), {})
