import re
from pathlib import Path

import pytest

import qptscale

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The ```python block under the README's "Library quick start" heading."""
    match = re.search(r"## Library quick start\n\n```python\n(.*?)```",
                      README.read_text(), re.S)
    assert match, "README has no library quick start block"
    return match.group(1)


def test_readme_quick_start_runs_and_matches_its_comment():
    code = quick_start()
    namespace = {}
    exec(code, namespace)
    claimed = re.search(r"^fidelity_scaling\(eta\)\s+# ([0-9.]+)", code, re.M)
    assert claimed, "the fidelity_scaling line lost its value comment"
    value = namespace["fidelity_scaling"](namespace["eta"])
    assert value == pytest.approx(float(claimed.group(1)), abs=5e-7)
    claimed = re.search(r"^(participation_ratio\(.*\))\s+# ([0-9.]+)", code, re.M)
    assert claimed, "the participation_ratio line lost its value comment"
    value = eval(claimed.group(1), namespace)
    assert value == pytest.approx(float(claimed.group(2)), abs=5e-7)
    assert namespace["series"].covers_period is True  # as its comment says


def test_every_public_name_resolves_once():
    names = qptscale.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(qptscale, name)] == []
