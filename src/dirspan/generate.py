"""Deterministic instance generators for experiments and tests."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadSpec
from .graph import build_graph

FAMILIES = ("er", "cycle", "layered", "grid")


@dataclass(frozen=True)
class GenSpec:
    family: str
    params: dict
    gen_seed: int


def _lengths(rng, count, max_len):
    if max_len <= 1:
        return [1.0] * count
    return [float(v) for v in rng.integers(1, max_len + 1, size=count)]


def generate_instance(spec):
    """Build the graph a GenSpec describes; same spec, same graph, always."""
    family = spec.family
    params = dict(spec.params)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=spec.gen_seed)))

    def take_int(name, minimum, default=None):
        val = params.pop(name, default)
        if val is None:
            raise BadSpec(f"{family}: missing parameter {name!r}")
        try:
            val = int(val)
        except (TypeError, ValueError):
            raise BadSpec(f"{family}: parameter {name!r} must be an integer, got {val!r}") from None
        if val < minimum:
            raise BadSpec(f"{family}: parameter {name!r} must be >= {minimum}, got {val}")
        return val

    def take_float(name, default=None):
        val = params.pop(name, default)
        if val is None:
            raise BadSpec(f"{family}: missing parameter {name!r}")
        try:
            val = float(val)
        except (TypeError, ValueError):
            raise BadSpec(f"{family}: parameter {name!r} must be a number, got {val!r}") from None
        if not 0.0 <= val <= 1.0:  # NaN fails both
            raise BadSpec(f"{family}: parameter {name!r} out of range: {val}")
        return val

    if family == "er":
        n = take_int("n", minimum=2)
        p = take_float("p")
        max_len = take_int("max_len", default=1, minimum=1)
        # draw k decides the k-th ordered pair (i, j), i != j, in row-major order
        chosen = np.flatnonzero(rng.random(n * (n - 1)) < p)
        tails, heads = np.divmod(chosen, n - 1)
        heads += heads >= tails
        edges = list(zip(tails.tolist(), heads.tolist(), _lengths(rng, len(chosen), max_len)))
    elif family == "cycle":
        n = take_int("n", minimum=2)
        max_len = take_int("max_len", default=1, minimum=1)
        lens = _lengths(rng, n, max_len)
        edges = [(i, (i + 1) % n, lens[i]) for i in range(n)]
    elif family == "layered":
        layers = take_int("layers", minimum=2)
        width = take_int("width", minimum=1)
        p = take_float("p", default=0.5)
        max_len = take_int("max_len", default=1, minimum=1)
        n = layers * width
        # draw k = (a * width + i) * width + j decides the pair (a * width + i, (a + 1) * width + j)
        chosen = np.flatnonzero(rng.random((layers - 1) * width * width) < p)
        tails = chosen // width
        heads = (chosen // (width * width) + 1) * width + chosen % width
        edges = list(zip(tails.tolist(), heads.tolist(), _lengths(rng, len(chosen), max_len)))
    elif family == "grid":
        rows = take_int("rows", minimum=1)
        cols = take_int("cols", minimum=1)
        if rows * cols < 2:
            raise BadSpec("grid: need at least two vertices")
        max_len = take_int("max_len", default=1, minimum=1)
        n = rows * cols
        pairs = []
        for r in range(rows):
            for c in range(cols):
                v = r * cols + c
                if c + 1 < cols:
                    pairs.append((v, v + 1))
                if r + 1 < rows:
                    pairs.append((v, v + cols))
        lens = _lengths(rng, len(pairs), max_len)
        edges = [(i, j, ln) for (i, j), ln in zip(pairs, lens)]
    else:
        raise BadSpec(f"unknown family {family!r}; expected one of {FAMILIES}")

    if params:
        raise BadSpec(f"{family}: unknown parameters {sorted(params)}")
    return build_graph(n, edges)


def parse_gen_spec(text):
    """Parse 'family:key=value,key=value' with an optional seed key; each key may appear once."""
    head, _, rest = text.partition(":")
    family = head.strip()
    if not family:
        raise BadSpec(f"empty generator family in {text!r}")
    params = {}
    gen_seed = 0
    if rest.strip():
        seen = set()
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            key = key.strip()
            val = val.strip()
            if not eq or not key or not val:
                raise BadSpec(f"malformed generator parameter {item!r}")
            if key in seen:
                raise BadSpec(f"repeated generator parameter {key!r}")
            seen.add(key)
            if key == "seed":
                try:
                    gen_seed = int(val)
                except ValueError:
                    raise BadSpec(f"seed must be an integer, got {val!r}") from None
                if gen_seed < 0:
                    raise BadSpec(f"seed must be >= 0, got {gen_seed}")
            else:
                params[key] = val
    return GenSpec(family=family, params=params, gen_seed=gen_seed)
