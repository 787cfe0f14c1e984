"""load_scenario's one-pass walk against the JSON Schema it enforces.

jsonschema is the oracle. Generated documents get one mutation each: where
the oracle rejects, the walk must reject at the same JSON path; where it
accepts, the walk may reject only for its two extra rules, a non-finite
number or an integer field given as a float. Documents with several
violations check that the walk reports the one the oracle finds first."""

import copy
import json
import math
import re
from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from riskcast.scene import (SCENARIO_SCHEMA, TEMPLATES, ScenarioError,
                            dump_scenario, generate_scenario, load_scenario)

ORACLE = Draft202012Validator(SCENARIO_SCHEMA)
INTEGER_FIELDS = ("$.H", "$.T", "$.ego_index")
# wrong types, bools, a bad enum value, integral and fractional floats,
# boundary numbers and non-finite numbers
REPLACEMENTS = [None, True, False, "hovercraft", 2, 2.0, 2.5, 0, -1, [], {},
                math.nan, math.inf]


def oracle_path(doc, oracle=ORACLE) -> str | None:
    """The JSON path of the first error the oracle finds, or None."""
    error = next(oracle.iter_errors(doc), None)
    if error is None:
        return None
    return "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}"
                         for p in error.absolute_path)


def locations(node, path="$"):
    """(path, parent, key) of every element below node."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        child_path = f"{path}[{key}]" if isinstance(key, int) \
            else f"{path}.{key}"
        yield child_path, node, key
        yield from locations(child, child_path)


def value_at(doc, path):
    for part in re.findall(r"\.(\w+)|\[(\d+)\]", path):
        doc = doc[part[0]] if part[0] else doc[int(part[1])]
    return doc


def mutate(draw, doc, replacements):
    """doc with one mutation: a dropped key or item, a value replaced by a
    copy of one of replacements, or an array one item short or long."""
    # pick a schema position first, so that the many waypoints, states or
    # points do not crowd out the top-level fields
    groups = defaultdict(list)
    for place in [("$", None, None)] + list(locations(doc)):
        groups[re.sub(r"\[\d+\]", "[]", place[0])].append(place)
    path, parent, key = draw(st.sampled_from(
        groups[draw(st.sampled_from(sorted(groups)))]))
    if parent is None:
        return copy.deepcopy(draw(st.sampled_from(replacements)))
    value = parent[key]
    ops = ["drop", "replace"] + (["short", "long"] if isinstance(value, list)
                                 and value else [])
    op = draw(st.sampled_from(ops))
    if op == "drop":
        del parent[key]
    elif op == "replace":
        parent[key] = copy.deepcopy(draw(st.sampled_from(replacements)))
    elif op == "short":
        value.pop()
    else:
        value.append(copy.deepcopy(value[-1]))
    return doc


@st.composite
def mutated_documents(draw):
    """A generated scene with one mutation (`mutate`)."""
    scn = generate_scenario(draw(st.sampled_from(TEMPLATES)),
                            draw(st.integers(1, 4)),
                            draw(st.integers(0, 50)), H=2, T=3)
    return mutate(draw, json.loads(dump_scenario(scn)), REPLACEMENTS)


def walk_error(doc) -> str | None:
    try:
        load_scenario(json.dumps(doc))
    except ScenarioError as e:
        match = re.match(r"schema violation at (\$\S*): ", str(e))
        return match.group(1) if match else None
    return None


@settings(max_examples=500, deadline=None)
@given(mutated_documents())
def test_walk_matches_json_schema(doc):
    want = oracle_path(doc)
    got = walk_error(doc)
    if want is not None:
        assert got == want
    elif got is not None:
        # only the walk's two extra rules reject what the oracle accepts
        value = value_at(doc, got)
        assert type(value) is float
        assert not math.isfinite(value) or got in INTEGER_FIELDS


def test_generated_documents_pass_both():
    for i, template in enumerate(TEMPLATES):
        doc = json.loads(dump_scenario(generate_scenario(template, 3, i)))
        assert oracle_path(doc) is None and walk_error(doc) is None


DROP = object()


def put(doc, path, value):
    """Set the element at path to value, or delete it if value is DROP."""
    match = re.fullmatch(r"(.*)(?:\.(\w+)|\[(\d+)\])", path)
    parent = value_at(doc, match[1])
    key = match[2] or int(match[3])
    if value is DROP:
        del parent[key]
    else:
        parent[key] = value


# violations where the schema's visiting order decides which one is
# reported; every document also has a history length mismatch, which is
# checked after the schema
ORDER_CASES = {
    "waypoint items before waypoint length": [
        ("$.map[0].waypoints[1]", [1.0, "x", 2.0])],
    "scenario_id before template": [
        ("$.template", 2), ("$.scenario_id", 1)],
    "required before property types": [
        ("$.agents[1].class", "hovercraft"), ("$.agents[1].id", DROP)],
    "agents before map": [
        ("$.map[0].kind", "sidewalk"), ("$.agents[1].mass", -1)],
    "earlier agent first": [
        ("$.agents[2].width", "w"), ("$.agents[1].states[0]", [])],
    "schema before history length": [("$.map[1].waypoints", [[0, 0]])],
}


def test_first_of_several_errors_matches_oracle():
    base = json.loads(dump_scenario(
        generate_scenario("crossing_conflict", 3, seed=4, H=2, T=3)))
    base["agents"][0]["states"].pop()
    for name, edits in ORDER_CASES.items():
        doc = copy.deepcopy(base)
        for path, value in edits:
            put(doc, path, value)
        assert walk_error(doc) == oracle_path(doc) is not None, name
