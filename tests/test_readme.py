"""The README's quick start runs as written and prints what its comments say."""
import contextlib
import re
from io import StringIO
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_prints_the_documented_orbits():
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
    documented = [tuple(map(float, comment.split(", "))) for comment in re.findall(
        r"print\(result\.y0_star, result\.s1\) +# (.*)", block)]
    assert documented == [(0.6421767, 3.9326203), (0.2639807, 1.6495728)]
    out = StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = [tuple(round(float(v), 7) for v in line.split())
               for line in out.getvalue().splitlines() if re.fullmatch(r"[\d.]+ [\d.]+", line)]
    assert printed == documented
