"""The public surface is frozen: ``repro.__all__``, the route table
and the config keys.

The committed fixture ``tests/data/api_surface.json`` is the contract.
Growing the surface is fine — regenerate the fixture in the same
commit (``python -m tests.test_api_surface`` or ``python
tests/test_api_surface.py``); shrinking or renaming anything is a
breaking change this test is meant to make loud.  Every config knob
added or removed shows up in the fixture's ``config_keys`` diff.
"""

from __future__ import annotations

import json
from pathlib import Path

import repro
from repro.service import route_table

FIXTURE = Path(__file__).parent / "data" / "api_surface.json"


def _leaf_paths(data: dict, prefix: str = "") -> list[str]:
    """Dotted paths of every non-dict value in a nested dict."""
    paths = []
    for key, value in data.items():
        if isinstance(value, dict):
            paths.extend(_leaf_paths(value, f"{prefix}{key}."))
        else:
            paths.append(f"{prefix}{key}")
    return paths


def current_surface() -> dict:
    """The live surface in the fixture's shape."""
    return {
        "python_api": sorted(set(repro.__all__)),
        "routes": route_table(),
        "config_keys": sorted(_leaf_paths(repro.config_to_dict(repro.AnalyzerConfig()))),
    }


def write_snapshot() -> None:
    """Regenerate the committed fixture from the live surface."""
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(current_surface(), indent=2) + "\n")


def test_fixture_exists():
    assert FIXTURE.exists(), (
        f"missing {FIXTURE}; regenerate with `python {__file__}`"
    )


def test_python_api_matches_snapshot():
    snapshot = json.loads(FIXTURE.read_text())
    live = current_surface()
    assert live["python_api"] == snapshot["python_api"], (
        "repro.__all__ drifted from tests/data/api_surface.json; if the "
        f"change is intentional, regenerate with `python {__file__}`"
    )


def test_route_table_matches_snapshot():
    snapshot = json.loads(FIXTURE.read_text())
    live = current_surface()
    assert live["routes"] == snapshot["routes"], (
        "the HTTP route table drifted from tests/data/api_surface.json; "
        f"if the change is intentional, regenerate with `python {__file__}`"
    )


def test_config_keys_match_snapshot():
    snapshot = json.loads(FIXTURE.read_text())
    live = current_surface()
    assert live["config_keys"] == snapshot["config_keys"], (
        "the AnalyzerConfig leaf keys drifted from tests/data/api_surface.json; "
        f"if the change is intentional, regenerate with `python {__file__}`"
    )


def test_all_names_importable():
    missing = [name for name in repro.__all__ if not hasattr(repro, name)]
    assert not missing, f"__all__ names not importable: {missing}"


def test_routes_are_versioned():
    for entry in route_table():
        method, path = entry.split(" ", 1)
        assert path.startswith(f"/{repro.API_VERSION}/"), entry
        assert method in {"GET", "POST", "DELETE"}, entry


if __name__ == "__main__":
    write_snapshot()
    print(f"wrote {FIXTURE}")
