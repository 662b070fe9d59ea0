"""JSON wire format for the risk service.

The engine's result objects (:class:`~repro.engine.table.Table`,
:class:`~repro.engine.mcdb.MonteCarloResult`,
:class:`~repro.core.gibbs_looper.LooperResult`) are numpy-backed; the
service speaks plain JSON.  This module is the one place that mapping
lives, in both directions:

* ``output_to_wire`` renders a :class:`~repro.sql.session.QueryOutput`
  into JSON-safe dicts — floats stay exact enough for the bit-identity
  contract because ``repr(float)`` round-trips (the bench's serial
  cross-check compares payloads produced by this same function).
* ``columns_from_wire`` validates a client table/append body into the
  ``{column: list}`` mapping the catalog expects.

Anything a client can get wrong raises :class:`ApiError`, which the HTTP
layer maps onto a status code without string-matching messages.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

__all__ = ["ApiError", "json_value", "output_to_wire", "columns_from_wire",
           "standing_to_wire"]


class ApiError(Exception):
    """A client-visible failure with an HTTP status to report it under."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = int(status)
        self.message = message

    def to_wire(self) -> dict:
        return {"error": self.message, "status": self.status}


def json_value(value: Any) -> Any:
    """Coerce a scalar to a JSON-native type (numpy → Python)."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (np.str_,)):
        return str(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _distribution_to_wire(dist) -> dict:
    """Flatten a ResultDistribution: moments + the raw sample vector.

    The samples ship in full (repetitions are small by construction —
    they are the *outer* Monte Carlo loop) so clients can re-derive any
    quantile or frequency table without another round-trip, and so the
    bench's bit-identity check can compare entire distributions.
    """
    low95, high95 = (dist.expectation_interval(0.95)
                     if dist.n > 1 else (dist.expectation(),) * 2)
    return {
        "n": dist.n,
        "mean": dist.expectation(),
        "std": dist.std(),
        "ci95": [low95, high95],
        "samples": [float(x) for x in dist.samples],
    }


def _rows_to_wire(table) -> dict:
    return {
        "table": table.name,
        "columns": table.column_names,
        "rows": [[json_value(v) for v in row.values()]
                 for row in table.rows()],
    }


def _montecarlo_to_wire(result) -> dict:
    groups = []
    for key in result.group_keys:
        by_name = result.aggregates(key)
        groups.append({
            "key": [json_value(part) for part in key],
            "aggregates": {name: _distribution_to_wire(dist)
                           for name, dist in sorted(by_name.items())},
        })
    return {
        "repetitions": result.repetitions,
        "group_by": list(result.group_by),
        "groups": groups,
    }


def _tail_to_wire(result) -> dict:
    return {
        "quantile_estimate": float(result.quantile_estimate),
        "samples": [float(x) for x in result.samples],
        "plan_runs": int(result.plan_runs),
        "num_seeds": int(result.num_seeds),
        "num_tuples": int(result.num_tuples),
    }


def output_to_wire(output) -> dict:
    """Render a ``QueryOutput`` as a JSON-safe ``{"kind": ..., ...}``."""
    payload: dict = {"kind": output.kind}
    if output.kind == "rows":
        payload["rows"] = _rows_to_wire(output.rows)
    elif output.kind == "montecarlo":
        payload["montecarlo"] = _montecarlo_to_wire(output.distributions)
    elif output.kind == "tail":
        payload["tail"] = _tail_to_wire(output.tail)
    # "create" and friends carry no payload beyond the kind.
    return payload


def standing_to_wire(record) -> dict:
    """Render a service-side standing-query registration as JSON.

    The *registration*, not a result: results are immutable
    ``AnalysisJournal`` versions (one per refresh) fetched through the
    journal endpoints or the long-poll, so this payload only carries the
    handle's identity and refresh accounting.
    """
    return {
        "standing_id": record.standing_id,
        "tenant": record.tenant,
        "name": record.analysis_name,
        "sql": record.sql,
        "status": record.status,
        "refreshes": int(record.refreshes),
        "journal_versions": int(record.versions),
        "last_mode": record.last_mode,
        "error": record.last_error,
        "created_at": record.created_at,
    }


def columns_from_wire(body: Mapping, *, field: str = "columns") -> dict:
    """Validate a ``{"columns": {name: [values]}}`` request body."""
    if not isinstance(body, Mapping):
        raise ApiError(400, "request body must be a JSON object")
    columns = body.get(field)
    if not isinstance(columns, Mapping) or not columns:
        raise ApiError(
            400, f"body must carry a non-empty {field!r} object "
                 "mapping column names to value lists")
    out = {}
    for name, values in columns.items():
        if not isinstance(name, str):
            raise ApiError(400, f"column name {name!r} is not a string")
        if not isinstance(values, (list, tuple)):
            raise ApiError(
                400, f"column {name!r} must be a JSON array of values")
        out[name] = list(values)
    return out
