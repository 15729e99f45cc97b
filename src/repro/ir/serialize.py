"""Graph serialization: an ONNX-like JSON structure plus an .npz sidecar.

The paper's engine interoperates through "standard ONNX format"; we mirror
that with a JSON graph-def (structure, shapes, attributes) and store tensor
payloads in a companion ``.npz`` so graphs survive round trips exactly.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

import numpy as np

from ..errors import GraphError
from .dtype import DType
from .graph import Graph
from .node import Node
from .tensor import TensorSpec

FORMAT_VERSION = 1


def graph_to_dict(graph: Graph, include_weights: bool = True) -> dict[str, Any]:
    """Convert a graph to a JSON-safe dict.

    When ``include_weights`` is True, initializer payloads are embedded as
    nested lists (fine for small graphs / tests); otherwise only shapes are
    kept and the caller is expected to save weights separately.
    """
    doc: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "name": graph.name,
        "inputs": list(graph.inputs),
        "outputs": list(graph.outputs),
        "values": {
            name: {"shape": list(spec.shape), "dtype": spec.dtype.value}
            for name, spec in graph.values.items()
        },
        "nodes": [
            {
                "op_type": n.op_type,
                "name": n.name,
                "inputs": list(n.inputs),
                "outputs": list(n.outputs),
                "attrs": _attrs_to_json(n.attrs),
            }
            for n in graph.nodes
        ],
        "trainable": sorted(graph.trainable),
        "metadata": graph.metadata,
    }
    if include_weights:
        doc["initializers"] = {
            name: {"dtype": str(arr.dtype), "data": arr.tolist()}
            for name, arr in graph.initializers.items()
        }
    else:
        doc["initializers"] = {name: None for name in graph.initializers}
    return doc


def graph_from_dict(doc: dict[str, Any],
                    weights: dict[str, np.ndarray] | None = None) -> Graph:
    """Reconstruct a graph from :func:`graph_to_dict` output."""
    if doc.get("format_version") != FORMAT_VERSION:
        raise GraphError(f"unsupported format version {doc.get('format_version')}")
    graph = Graph(doc["name"])
    for name, value in doc["values"].items():
        graph.add_value(
            TensorSpec(name, tuple(value["shape"]), DType(value["dtype"]))
        )
    graph.inputs = list(doc["inputs"])
    graph.outputs = list(doc["outputs"])
    for entry in doc["nodes"]:
        graph.add_node(
            Node(
                entry["op_type"],
                entry["name"],
                tuple(entry["inputs"]),
                tuple(entry["outputs"]),
                _attrs_from_json(entry["attrs"]),
            )
        )
    for name, payload in doc.get("initializers", {}).items():
        if weights is not None and name in weights:
            array = weights[name]
        elif payload is not None:
            array = np.asarray(payload["data"], dtype=payload["dtype"])
            array = array.reshape(tuple(doc["values"][name]["shape"]))
        else:
            raise GraphError(f"no payload for initializer {name!r}")
        graph.add_initializer(name, array)
    graph.trainable = set(doc.get("trainable", ()))
    graph.metadata = dict(doc.get("metadata", {}))
    return graph


def canonical_graph_bytes(graph: Graph, include_weights: bool = False) -> bytes:
    """A deterministic byte encoding of ``graph`` suitable for hashing.

    Structure, value specs, node list, trainable set, and metadata are
    encoded as canonical JSON (sorted keys, no whitespace). Initializer
    *payloads* are never embedded; when ``include_weights`` is True each
    array contributes a digest of its raw bytes instead, so two graphs with
    identical structure but different weights hash differently without the
    cost of serializing full tensors.
    """
    doc = graph_to_dict(graph, include_weights=False)
    if include_weights:
        doc["initializers"] = {
            name: _array_digest(arr)
            for name, arr in graph.initializers.items()
        }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      default=_json_default).encode()


def graph_fingerprint(graph: Graph, include_weights: bool = False) -> str:
    """A stable hex digest of ``graph``.

    Equal graphs (same structure/shapes/attrs, and — with
    ``include_weights`` — same initializer payloads) always produce the
    same fingerprint across processes; any structural change produces a
    different one. This is the identity the serving layer's program cache
    keys on (:mod:`repro.serve.keys`).
    """
    return hashlib.sha256(
        canonical_graph_bytes(graph, include_weights=include_weights)
    ).hexdigest()


def _array_digest(arr: np.ndarray) -> dict[str, Any]:
    payload = np.ascontiguousarray(arr)
    return {
        "dtype": str(payload.dtype),
        "shape": list(payload.shape),
        "sha256": hashlib.sha256(payload.tobytes()).hexdigest(),
    }


def _json_default(value: Any):
    """Canonicalize the odd non-JSON value metadata can carry."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, np.ndarray):
        return _array_digest(value)
    raise TypeError(f"cannot canonicalize {type(value).__name__} for hashing")


def save_graph(graph: Graph, path: str | Path) -> None:
    """Write ``<path>.json`` (structure) and ``<path>.npz`` (weights)."""
    path = Path(path)
    doc = graph_to_dict(graph, include_weights=False)
    path.with_suffix(".json").write_text(json.dumps(doc, indent=1))
    np.savez(path.with_suffix(".npz"), **graph.initializers)


def load_graph(path: str | Path) -> Graph:
    """Inverse of :func:`save_graph`."""
    path = Path(path)
    doc = json.loads(path.with_suffix(".json").read_text())
    with np.load(path.with_suffix(".npz")) as payload:
        weights = {name: payload[name] for name in payload.files}
    return graph_from_dict(doc, weights=weights)


def _attr_to_json(value: Any) -> Any:
    if isinstance(value, tuple):
        return {"__tuple__": [_attr_to_json(v) for v in value]}
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _attr_from_json(value: Any) -> Any:
    """Inverse of :func:`_attr_to_json`, at every nesting depth (``pad``
    carries a tuple of per-axis tuples)."""
    if isinstance(value, dict) and "__tuple__" in value:
        value = value["__tuple__"]
    if isinstance(value, list):
        return tuple(_attr_from_json(v) for v in value)
    return value


def _attrs_to_json(attrs: dict[str, Any]) -> dict[str, Any]:
    return {key: _attr_to_json(value) for key, value in attrs.items()}


def _attrs_from_json(attrs: dict[str, Any]) -> dict[str, Any]:
    return {key: _attr_from_json(value) for key, value in attrs.items()}
