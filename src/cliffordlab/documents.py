"""Workbench document format: strict JSON with exact rationals as "p/q".

A document is {"kind": ..., "meta": {"name": ..., "description"?}, "body":
{...}} with a kind-specific body schema.  Parsing checks shape and types
only; semantic validation (associativity, homomorphism laws, metric axioms)
happens when the domain object is built, so a well-shaped file with broken
algebra parses fine and fails in the relevant validator.

Serialization is deterministic: one encoder, _to_json, writes the bytes of
json.dumps(value, sort_keys=True, indent=2), for documents and for the
structured CLI channel alike.

The module loads only the structure layers (core and semilattice); the
poset, topology-model and metric-data builders import their own layers
when called.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .core import FiniteSemigroup, _with_labels, validate_semigroup
from .errors import SchemaError, WorkbenchError
from .semilattice import StrongSemilatticeSpec, validate_spec


@dataclass(frozen=True)
class WorkbenchDocument:
    kind: str
    name: str
    description: str
    body: dict


def parse_rational(value, path: str) -> Fraction:
    if _is_int(value):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(path, f"bad rational {value!r}: {exc}")
    raise SchemaError(path, f"expected rational string, got {type(value).__name__}")


def format_rational(f: Fraction) -> str:
    f = Fraction(f)
    try:
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    except ValueError:  # past Python's limit on int-to-str digits
        raise WorkbenchError("the exact value is too long to print; "
                             "--truncation cuts the series") from None


def _require(obj, path, required, optional=()):
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected object, got {type(obj).__name__}")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}", "unknown field")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{path}.{key}", "missing field")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_rows(m, path):
    if not isinstance(m, list) or not all(isinstance(r, list) for r in m):
        raise SchemaError(path, "expected a list of rows")


def _check_int_matrix(m, path):
    _check_rows(m, path)
    for i, row in enumerate(m):
        if set(map(type, row)) <= {int}:  # else find the cell to name
            continue
        for j, v in enumerate(row):
            if not _is_int(v):
                raise SchemaError(f"{path}[{i}][{j}]", "expected an integer")


def _rational_matrix(m, path) -> list:
    _check_rows(m, path)
    return [[parse_rational(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)]
            for i, row in enumerate(m)]


def _check_int(v, path):
    if not _is_int(v):
        raise SchemaError(path, "expected an integer")


def _check_int_list(v, path):
    if not isinstance(v, list) or not set(map(type, v)) <= {int}:
        raise SchemaError(path, "expected a list of ints")


def _is_index(key: str) -> bool:
    """Does key spell an index in canonical decimal: ASCII digits, no
    leading zero, and no more digits than int() takes?"""
    return (key.isascii() and key.isdecimal() and (key == "0" or key[0] != "0")
            and not 0 < sys.get_int_max_str_digits() < len(key))


def _check_by_element(obj, path, n, check_value):
    """An object keyed by the element indices 0..n-1 of E."""
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    for key, value in obj.items():
        if not (_is_index(key) and int(key) < n):
            raise SchemaError(f"{path}.{key}",
                              f"keys are element indices 0..{n - 1}")
        check_value(value, f"{path}.{key}")


def _check_cayley_body(body, path="body"):
    _require(body, path, ["n", "table"], ["labels"])
    _check_int(body["n"], f"{path}.n")
    _check_int_matrix(body["table"], f"{path}.table")
    if len(body["table"]) != body["n"]:
        raise SchemaError(f"{path}.table", f"expected {body['n']} rows")
    if "labels" in body:
        if not isinstance(body["labels"], list) or not all(
            isinstance(s, str) for s in body["labels"]
        ):
            raise SchemaError(f"{path}.labels", "expected a list of strings")
        if len(body["labels"]) != body["n"]:
            raise SchemaError(f"{path}.labels", f"expected {body['n']} labels, "
                              f"got {len(body['labels'])}")
        first = {}
        for j, label in enumerate(body["labels"]):
            i = first.setdefault(label, j)
            if i != j:
                raise SchemaError(f"{path}.labels",
                                  f"label {label!r} repeats at indices {i} and {j}")


def _check_spec_body(body, path="body"):
    _require(body, path, ["e", "groups", "bonding"])
    _check_cayley_body(body["e"], f"{path}.e")
    if not isinstance(body["groups"], dict):
        raise SchemaError(f"{path}.groups", "expected an object")
    for key, g in body["groups"].items():
        if not _is_index(key):
            raise SchemaError(f"{path}.groups.{key}", "keys are element indices")
        _check_cayley_body(g, f"{path}.groups.{key}")
    if not isinstance(body["bonding"], dict):
        raise SchemaError(f"{path}.bonding", "expected an object")
    for key, phi in body["bonding"].items():
        parts = key.split("->")
        if len(parts) != 2 or not all(_is_index(p) for p in parts):
            raise SchemaError(f"{path}.bonding.{key}", 'keys look like "f->e"')
        _check_int_list(phi, f"{path}.bonding.{key}")


def _check_poset(body):
    _require(body, "body", ["n", "leq"])
    _check_int(body["n"], "body.n")
    leq = body["leq"]
    if not isinstance(leq, list) or len(leq) != body["n"]:
        raise SchemaError("body.leq", f"expected {body['n']} rows")
    for i, row in enumerate(leq):
        if not isinstance(row, list) or len(row) != body["n"]:
            raise SchemaError(f"body.leq[{i}]", f"expected {body['n']} entries")
        for j, v in enumerate(row):
            if not (isinstance(v, bool) or _is_int(v) and v in (0, 1)):
                raise SchemaError(f"body.leq[{i}][{j}]", "expected 0/1 or bool")


def _check_topology_model(body):
    _require(body, "body", ["semigroup", "opens"])
    _check_cayley_body(body["semigroup"], "body.semigroup")
    if not isinstance(body["opens"], list):
        raise SchemaError("body.opens", "expected a list of open sets")
    for i, O in enumerate(body["opens"]):
        if not isinstance(O, list) or not all(_is_int(v) for v in O):
            raise SchemaError(f"body.opens[{i}]", "expected a list of indices")


def _check_metric_data(body):
    if not isinstance(body, dict) or "type" not in body:
        raise SchemaError("body.type", "missing field")
    if body["type"] == "flat":
        _require(body, "body", ["type", "truncation", "fiber", "bonding"],
                 ["basis", "base_points", "pseudo"])
        if not _is_int(body["truncation"]) or body["truncation"] < 1:
            raise SchemaError("body.truncation", "expected a positive integer")
        _check_cayley_body(body["fiber"], "body.fiber")
        if body["bonding"] not in ("identity", "collapse"):
            raise SchemaError("body.bonding", 'expected "identity" or "collapse"')
        n = body["truncation"] + 1
    elif body["type"] == "spec":
        _require(body, "body", ["type", "spec", "rho"],
                 ["basis", "d", "base_points", "enumerations", "pseudo"])
        _check_spec_body(body["spec"], "body.spec")
        n = body["spec"]["e"]["n"]
        _rational_matrix(body["rho"], "body.rho")
        _check_by_element(body.get("d", {}), "body.d", n, _rational_matrix)
        _check_by_element(body.get("enumerations", {}), "body.enumerations", n,
                          _check_int_list)
    else:
        raise SchemaError("body.type", f"unknown metric-data type {body['type']!r}")
    if "basis" in body:
        _check_int_list(body["basis"], "body.basis")
    _check_by_element(body.get("base_points", {}), "body.base_points", n,
                      _check_int)
    if "pseudo" in body and not isinstance(body["pseudo"], bool):
        raise SchemaError("body.pseudo", "expected a boolean")


# the rigidity report's exact matrix products and elimination cost dim^3
MAX_CHART_DIM = 64


def _check_chart_model(body):
    if not isinstance(body, dict):
        raise SchemaError("body", "expected object")
    if "builtin" in body:
        from .charts import BUILTIN_MODELS

        _require(body, "body", ["builtin"], ["dim", "radius"])
        if not isinstance(body["builtin"], str):
            raise SchemaError("body.builtin", "expected a string")
        if body["builtin"] not in BUILTIN_MODELS:
            raise SchemaError(
                "body.builtin",
                f"unknown builtin; have {sorted(BUILTIN_MODELS)}",
            )
    else:
        _require(body, "body", ["dim", "polynomials"], ["radius"])
    if "dim" in body and (not _is_int(body["dim"]) or body["dim"] < 1):
        raise SchemaError("body.dim", "expected a positive integer")
    if body.get("dim", 1) > MAX_CHART_DIM:
        raise SchemaError("body.dim", f"at most {MAX_CHART_DIM} dimensions")
    if body.get("builtin") == "min-plus" and body.get("dim", 2) != 2:
        raise SchemaError("body.dim", "min-plus is 2-dimensional")
    if "radius" in body and not (_is_finite_number(body["radius"])
                                 and body["radius"] > 0):
        raise SchemaError("body.radius", "expected a positive finite number")
    if "polynomials" in body:
        _check_polynomials(body["polynomials"], body["dim"])


def _is_finite_number(v) -> bool:
    """An int or float, not a bool, inf, nan or an int beyond float range."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and abs(v) <= sys.float_info.max


def _check_polynomials(polys, dim):
    if not isinstance(polys, list) or len(polys) != dim:
        raise SchemaError("body.polynomials", f"expected a list of {dim} coordinates")
    for i, coord in enumerate(polys):
        if not isinstance(coord, list):
            raise SchemaError(f"body.polynomials[{i}]", "expected a list of terms")
        for k, term in enumerate(coord):
            if (
                not isinstance(term, list)
                or len(term) != 2
                or not _is_finite_number(term[0])
                or not isinstance(term[1], list)
            ):
                raise SchemaError(
                    f"body.polynomials[{i}][{k}]",
                    "expected [finite coefficient, [exponents]]",
                )
            if len(term[1]) != 2 * dim or \
                    not all(_is_int(e) and e >= 0 for e in term[1]):
                raise SchemaError(
                    f"body.polynomials[{i}][{k}]",
                    f"expected {2 * dim} non-negative integer exponents",
                )


def parse_document(text: str) -> WorkbenchDocument:
    """Strict parse: unknown fields are rejected, shapes are checked, but no
    algebraic validation happens here."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"line {exc.lineno}, column {exc.colno}", exc.msg)
    except RecursionError:
        raise SchemaError("$", "arrays or objects nested too deeply") from None
    except ValueError:  # an integer literal past Python's int-digit limit
        raise SchemaError("$", "an integer literal has more than "
                          f"{sys.get_int_max_str_digits()} digits") from None
    _require(raw, "$", ["kind", "meta", "body"])
    kind = raw["kind"]
    if not isinstance(kind, str) or kind not in KINDS:  # a list is unhashable
        raise SchemaError("$.kind", f"unknown kind {kind!r}; have {tuple(KINDS)}")
    _require(raw["meta"], "$.meta", ["name"], ["description"])
    if not isinstance(raw["meta"]["name"], str):
        raise SchemaError("$.meta.name", "expected a string")
    check, _ = KINDS[kind]
    check(raw["body"])
    return WorkbenchDocument(
        kind=kind,
        name=raw["meta"]["name"],
        description=raw["meta"].get("description", ""),
        body=raw["body"],
    )


def document_envelope(doc: WorkbenchDocument) -> dict:
    """The JSON object of doc: kind, meta (the name, and the description if
    there is one) and body."""
    meta = {"name": doc.name}
    if doc.description:
        meta["description"] = doc.description
    return {"kind": doc.kind, "meta": meta, "body": doc.body}


def _to_json(value, indent: str = "") -> str:
    """json.dumps(value, sort_keys=True, indent=2), nested `indent` deep:
    strings, exact ints, lists and str-keyed objects are written here at C
    level, and any other value by json.dumps.  Private, so that perfbench's
    tracer, which wraps public functions, counts no nested call."""
    if type(value) is str:
        return _quote(value)
    if type(value) is int:
        return int.__repr__(value)
    inner = indent + "  "
    sep = ",\n" + inner
    if type(value) is list and value:
        items = (map(int.__repr__, value) if set(map(type, value)) <= {int}
                 else (_to_json(v, inner) for v in value))
        return f"[\n{inner}{sep.join(items)}\n{indent}]"
    if type(value) is dict and value and set(map(type, value)) == {str}:
        items = (f"{_quote(k)}: {_to_json(v, inner)}"
                 for k, v in sorted(value.items()))
        return f"{{\n{inner}{sep.join(items)}\n{indent}}}"
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + indent)


def serialize_document(doc: WorkbenchDocument) -> str:
    return _to_json(document_envelope(doc)) + "\n"


# ---------------------------------------------------------------------------
# builders: document body -> validated domain object


def _cayley_from_body(body) -> FiniteSemigroup:
    return validate_semigroup(body["table"], body.get("labels"))


def _spec_from_body(body) -> StrongSemilatticeSpec:
    """Each distinct group table is validated once; every group keeps its
    own labels.  The repr key tells 1, 1.0, True and "1" apart."""
    E = _cayley_from_body(body["e"])
    valid, groups = {}, {}
    for k, g in body["groups"].items():
        e, key = int(k), repr(g["table"])
        if key not in valid:
            valid[key] = validate_semigroup(g["table"])
        groups[e] = _with_labels(valid[key], g.get("labels"))
    bonding = {tuple(map(int, key.split("->"))): tuple(phi)
               for key, phi in body["bonding"].items()}
    return validate_spec(E, groups, bonding)


def build_semigroup(doc: WorkbenchDocument) -> FiniteSemigroup:
    _expect_kind(doc, "cayley")
    return _cayley_from_body(doc.body)


def build_spec(doc: WorkbenchDocument) -> StrongSemilatticeSpec:
    _expect_kind(doc, "spec")
    return _spec_from_body(doc.body)


def build_poset(doc: WorkbenchDocument) -> FinitePoset:
    from .order import validate_poset

    _expect_kind(doc, "poset")
    return validate_poset(doc.body["leq"])


def build_topology_model(doc: WorkbenchDocument) -> TopologicalSemigroupModel:
    from .topology import TopologicalSemigroupModel, validate_topology

    _expect_kind(doc, "topology-model")
    S = _cayley_from_body(doc.body["semigroup"])
    T = validate_topology(S.n, [frozenset(O) for O in doc.body["opens"]])
    return TopologicalSemigroupModel(S, T)


def build_bowman_data(doc: WorkbenchDocument) -> BowmanMetricData:
    from .metrics import bowman_data_from_spec, flat_bowman_data
    from .order import flat_model

    _expect_kind(doc, "metric-data")
    body = doc.body
    if body["type"] == "flat":
        fiber = _cayley_from_body(body["fiber"])
        return flat_bowman_data(
            flat_model(body["truncation"]),
            fiber,
            body["bonding"],
            basis=tuple(body["basis"]) if "basis" in body else None,
            base_points={int(k): v for k, v in body.get("base_points", {}).items()}
            or None,
            pseudo=body.get("pseudo", False),
        )
    return bowman_data_from_spec(
        _spec_from_body(body["spec"]),
        _rational_matrix(body["rho"], "body.rho"),
        basis=tuple(body["basis"]) if "basis" in body else None,
        d={int(e): _rational_matrix(m, f"body.d.{e}")
           for e, m in body.get("d", {}).items()} or None,
        base_points={int(k): v for k, v in body.get("base_points", {}).items()}
        or None,
        enumerations={int(k): tuple(v)
                      for k, v in body.get("enumerations", {}).items()} or None,
        pseudo=body.get("pseudo", False),
    )


def build_chart_model(doc: WorkbenchDocument) -> ChartModel:
    from .charts import BUILTIN_MODELS, polynomial_model

    _expect_kind(doc, "chart-model")
    body = doc.body
    if "builtin" in body:
        kwargs = {}
        if "dim" in body:
            kwargs["dim"] = body["dim"]
        if "radius" in body:
            kwargs["radius"] = float(body["radius"])
        return BUILTIN_MODELS[body["builtin"]](**kwargs)
    return polynomial_model(body["dim"], body["polynomials"],
                            radius=float(body.get("radius", 1.0)))


def _expect_kind(doc: WorkbenchDocument, kind: str):
    if doc.kind != kind:
        raise SchemaError("$.kind", f"expected {kind!r}, got {doc.kind!r}")


# kind -> (body check of parse_document, builder of build)
KINDS = {
    "cayley": (_check_cayley_body, build_semigroup),
    "spec": (_check_spec_body, build_spec),
    "poset": (_check_poset, build_poset),
    "topology-model": (_check_topology_model, build_topology_model),
    "metric-data": (_check_metric_data, build_bowman_data),
    "chart-model": (_check_chart_model, build_chart_model),
}


def build(doc: WorkbenchDocument):
    """The validated domain object of any document.  A metric-data document
    builds as the one `BowmanMetricData` that the series, isometric and
    disjoint-union distances all read, so `validate` and every distance
    agree on which metric-data documents are valid."""
    _, builder = KINDS[doc.kind]
    return builder(doc)


def semigroup_to_body(S: FiniteSemigroup) -> dict:
    body = {"n": S.n, "table": [list(row) for row in S.table]}
    if S.labels is not None:
        body["labels"] = list(S.labels)
    return body


def spec_to_body(spec: StrongSemilatticeSpec) -> dict:
    return {
        "e": semigroup_to_body(spec.E),
        "groups": {str(e): semigroup_to_body(g) for e, g in spec.groups.items()},
        "bonding": {
            f"{f}->{e}": list(phi)
            for (f, e), phi in sorted(spec.bonding.items())
            if f != e
        },
    }
