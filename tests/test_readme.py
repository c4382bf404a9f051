import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_sketch_converges(tmp_path, monkeypatch):
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        import matgen
    finally:
        sys.path.pop(0)
    matgen.write_matrix_market(matgen.convection_diffusion_2d(12, [2, 0]), tmp_path / "problem.mtx")
    [sketch] = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(sketch, scope)
    assert scope["report"].status == "converged"
