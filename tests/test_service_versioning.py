"""The ``/v1`` surface; the retired unversioned aliases answer 404."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.service import ServiceHandle, route_table


@pytest.fixture(scope="module")
def service():
    with ServiceHandle() as handle:
        yield handle


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), exc.headers


class TestAliases:
    @pytest.mark.parametrize(
        "path", ["/health", "/standards", "/config", "/metrics", "/version"]
    )
    def test_alias_and_v1_bodies_are_identical(self, service, path):
        """The unversioned aliases are gone: a bare path is a 404 with
        the error envelope, while its ``/v1`` twin answers 200."""
        alias_status, alias_body, alias_headers = _get(service.address + path)
        v1_status, _, _ = _get(service.address + "/v1" + path)
        assert alias_status == 404
        assert v1_status == 200
        assert alias_body["error"]["type"] == "not_found"
        assert set(alias_body["error"]) == {"type", "message", "detail"}
        assert alias_headers.get("Deprecation") is None

    def test_unknown_paths_are_404_on_both_surfaces(self, service):
        for prefix in ("", "/v1"):
            status, body, _ = _get(f"{service.address}{prefix}/nowhere")
            assert status == 404
            assert body["error"]["type"] == "not_found"
            assert set(body["error"]) == {"type", "message", "detail"}


class TestVersionEndpoint:
    def test_version_payload(self, service):
        import repro

        status, body, _ = _get(service.address + "/v1/version")
        assert status == 200
        assert body["api_version"] == "v1"
        assert body["package_version"] == repro.__version__
        assert isinstance(body["config_hash"], str) and body["config_hash"]


class TestRouteTable:
    def test_route_table_is_sorted_and_versioned(self):
        table = route_table()
        assert table == sorted(table)
        assert all(" /v1/" in entry for entry in table)

    def test_every_get_route_is_reachable(self, service):
        """Concrete GET routes answer something other than 404."""
        for entry in route_table():
            method, path = entry.split(" ", 1)
            if method != "GET" or "{" in path:
                continue
            status, _, _ = _get(service.address + path)
            assert status != 404, entry
