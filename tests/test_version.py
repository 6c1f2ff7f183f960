"""The package version is stated once per file and the two agree.

``pyproject.toml`` gives the version that installs, and
``kohnert.__version__`` the one a running program reports.
"""

from pathlib import Path

import pytest

import kohnert

tomllib = pytest.importorskip("tomllib")        # Python 3.11 and later

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_the_package_version_matches_pyproject():
    with PYPROJECT.open("rb") as f:
        assert tomllib.load(f)["project"]["version"] == kohnert.__version__
