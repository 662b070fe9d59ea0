"""Smoke client for standing queries: register, append, long-poll, verify.

Drives a real HTTP server through the streaming lifecycle — create a
tenant, load data, register a standing risk query, long-poll its first
journaled version, append rows over HTTP, long-poll the *refreshed*
version — then replays the same catalog history in a fresh in-process
:class:`~repro.sql.session.Session` and asserts the long-polled payload
is byte-identical to the fresh-session run on the grown table (the
bit-identity contract of the incremental refresh path).  A filtered tail
standing query rides along; the append cannot move it, and its refresh
must compute no row (the appended rows never reach its ``Instantiate``).

Run against a live server::

    python -m repro.server.standing_smoke --url http://127.0.0.1:8309

or self-hosted (spins up an in-process server on an ephemeral port)::

    python -m repro.server.standing_smoke
"""

from __future__ import annotations

import argparse
import json
import sys
import urllib.error
import urllib.request

_TIMEOUT = 45.0
_BASE_SEED = 7
_DDL = """
    CREATE TABLE Losses (CID, val) AS
    FOR EACH CID IN means
    WITH myVal AS Normal(VALUES(m, 0.1))
    SELECT CID, myVal.* FROM myVal
"""
_STANDING_SQL = ("SELECT SUM(val) AS total FROM Losses "
                 "WITH RESULTDISTRIBUTION MONTECARLO(25)")
#: Its filter rejects every appended row: refreshing must not move it.
_FILTERED_TAIL_SQL = ("SELECT SUM(val) AS total FROM Losses WHERE CID < 3 "
                      "WITH RESULTDISTRIBUTION MONTECARLO(25) "
                      "DOMAIN total >= QUANTILE(0.9)")
_INITIAL = {"CID": [0, 1, 2, 3], "m": [1.0, 2.0, 3.0, 4.0]}
_APPENDED = {"CID": [4, 5], "m": [9.0, 9.0]}


def _call(url: str, method: str = "GET", body: dict | None = None) -> dict:
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=_TIMEOUT) as response:
            return json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        detail = exc.read().decode(errors="replace")
        raise SystemExit(
            f"standing smoke FAILED: {method} {url} -> {exc.code}: {detail}")


def _wait_version(base: str, tenant: str, standing_id: str,
                  after: int) -> dict:
    """Long-poll until the standing query journals version ``after + 1``."""
    for _ in range(6):  # 6 x 20s polls before giving up
        reply = _call(f"{base}/tenants/{tenant}/standing/{standing_id}"
                      f"?wait=20&after={after}")
        if "record" in reply:
            return reply["record"]
    raise SystemExit(
        f"standing smoke FAILED: no journal version > {after} for "
        f"{standing_id} (last: {reply})")


def _fresh_session_payload(appended: bool, sql: str = _STANDING_SQL) -> dict:
    """The wire payload a fresh session produces on the (grown) table."""
    from repro.server.wire import output_to_wire
    from repro.sql.session import Session

    with Session(base_seed=_BASE_SEED) as session:
        columns = {name: list(values) for name, values in _INITIAL.items()}
        if appended:
            for name, values in _APPENDED.items():
                columns[name] = columns[name] + list(values)
        session.add_table("means", columns)
        session.execute(_DDL)
        return output_to_wire(session.execute(sql))


def run(base: str) -> None:
    health = _call(f"{base}/healthz")
    assert health["ok"] is True
    tenant = "standing-smoke"
    _call(f"{base}/tenants/{tenant}", "POST", {"base_seed": _BASE_SEED})
    _call(f"{base}/tenants/{tenant}/tables", "POST",
          {"name": "means", "columns": _INITIAL})
    ddl = _call(f"{base}/tenants/{tenant}/queries", "POST", {"sql": _DDL})
    settled = _call(f"{base}/queries/{ddl['query_id']}?wait=30")
    assert settled["status"] == "done", settled

    registered = _call(f"{base}/tenants/{tenant}/standing", "POST",
                       {"sql": _STANDING_SQL, "analysis": "standing-total"})
    standing_id = registered["standing_id"]
    first = _wait_version(base, tenant, standing_id, after=0)
    assert first["version"] == 1, first
    assert first["result"] == _fresh_session_payload(appended=False), \
        "initial standing result != fresh-session run"
    tail_id = _call(f"{base}/tenants/{tenant}/standing", "POST",
                    {"sql": _FILTERED_TAIL_SQL})["standing_id"]
    tail_first = _wait_version(base, tenant, tail_id, after=0)

    appended = _call(f"{base}/tenants/{tenant}/tables/means/rows", "POST",
                     {"columns": _APPENDED})
    assert appended["appended"] == len(_APPENDED["CID"]), appended
    assert appended["standing_refreshes_scheduled"] >= 1, appended

    second = _wait_version(base, tenant, standing_id, after=1)
    assert second["version"] == 2, second
    assert second["result"] == _fresh_session_payload(appended=True), \
        "refreshed standing result != fresh-session run on the grown table"
    assert second["result"] != first["result"], \
        "append did not change the estimate at all"
    tail_second = _wait_version(base, tenant, tail_id, after=1)
    assert tail_second["result"] == tail_first["result"] == \
        _fresh_session_payload(appended=True, sql=_FILTERED_TAIL_SQL), \
        "filtered tail moved, or != fresh-session run on the grown table"

    tail_status = _call(f"{base}/tenants/{tenant}/standing/{tail_id}")
    assert tail_status["standing"]["last_mode"] == "delta", tail_status
    assert tail_status["standing"]["last_rows_computed"] == 0, \
        "filtered tail refresh computed rows its filter rejects"

    status = _call(f"{base}/tenants/{tenant}/standing/{standing_id}")
    assert status["standing"]["status"] == "live", status
    assert status["standing"]["last_mode"] in ("delta", "full"), status
    print(f"standing smoke OK: 2 journaled versions, refresh mode="
          f"{status['standing']['last_mode']}, bit-identical to fresh runs")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", default=None,
                        help="base URL of a running risk server; "
                             "omit to self-host one in-process")
    args = parser.parse_args(argv)
    if args.url:
        run(args.url.rstrip("/"))
        return 0
    from .app import RiskServer
    with RiskServer() as server:
        run(server.url)
    return 0


if __name__ == "__main__":
    sys.exit(main())
