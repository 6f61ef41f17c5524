"""Randomized spanner construction from a fractional LP solution.

Three steps: start from the empty edge set, keep each edge independently
with probability min(alpha * x_e * sqrt(n), 1), then sample tree roots
each with probability min(alpha / sqrt(n), 1) and add a full outward and
inward shortest-path tree per root.  The trees alone repair every demand
whose covered vertex set is large, the rounded edges handle the rest with
high probability, and the expected size stays within alpha * sqrt(n) times
the LP value plus the tree budget.  Each phase of a trial draws from its own
labelled stream of the trial seed (trial_streams).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .verify import is_k_spanner

EDGE_STREAM = 0
ROOT_STREAM = 1
CLAIMS_STREAM = 2


# numpy's SeedSequence (numpy/random/bit_generator.pyx) and PCG64 seeding constants
POOL_SIZE = 4
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = np.uint32(0xCA01F9DD)
MIX_MULT_R = np.uint32(0x4973F715)
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MASK32 = (1 << 32) - 1
MASK128 = (1 << 128) - 1
SEED_CHUNK = 256  # trial seeds per pass, so the pass's arrays stay this small whatever the trial count


def _stream(seed, label):
    """The PCG64 generator that numpy seeds through SeedSequence(entropy=seed, spawn_key=(label,)).

    claims draws from it, since it takes one stream per run from a seed of
    any size; a run's trials take the same states from trial_streams.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(label,))))


def _hash_constants(init, mult, steps):
    """The hash constant before each of steps hashmix steps and after the last, as a uint32 column."""
    consts = [init]
    for _ in range(steps):
        consts.append(consts[-1] * mult & MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


ENTROPY_HASH = _hash_constants(INIT_A, MULT_A, POOL_SIZE * (POOL_SIZE + 1))  # pool, cross-mix, then the label
STATE_HASH = _hash_constants(INIT_B, MULT_B, 2 * POOL_SIZE)  # generate_state(4, uint64) draws 8 uint32 words
CROSS_ROWS = [np.array([d for d in range(POOL_SIZE) if d != s]) for s in range(POOL_SIZE)]


def _hashmix(words, consts):
    """numpy's hashmix of each row of words, row i with hash constants consts[i] and consts[i + 1]."""
    words = (words ^ consts[:-1]) * consts[1:]
    return words ^ (words >> 16)


def _mix(x, y):
    """numpy's mix of pool words x with hashed words y."""
    out = MIX_MULT_L * x - MIX_MULT_R * y
    return out ^ (out >> 16)


def pcg64_states(seeds, labels):
    """The PCG64 state of _stream(seed, label) for each seed below 2**64 and each label, seed by seed.

    One pass of numpy's SeedSequence mixing with a column per stream.  A
    stream's entropy words are its seed's two uint32 words, low first, zeros
    up to the pool size and then the label: numpy pads the entropy to the
    pool size before it appends a spawn key, and drops a zero high word
    before it pads, so a seed below 2**32 mixes the same words.
    generate_state(4, uint64) then gives PCG64's 128-bit seed and increment,
    which its set_seed steps as Python ints.  Yields one state dict, as
    PCG64.state reads, per (seed, label), the labels of a seed adjacent,
    each made only when it is taken.
    """
    seeds = np.repeat(np.asarray(seeds, dtype=np.uint64), len(labels))
    entropy = np.zeros((POOL_SIZE + 1, len(seeds)), dtype=np.uint32)
    entropy[0] = seeds  # the low word
    entropy[1] = seeds >> np.uint64(32)
    entropy[POOL_SIZE] = np.resize(np.asarray(labels, dtype=np.uint32), len(seeds))
    pool = _hashmix(entropy[:POOL_SIZE], ENTROPY_HASH[:POOL_SIZE + 1])
    step = POOL_SIZE
    for src, rows in enumerate(CROSS_ROWS):  # each pool word into every other, in numpy's order
        pool[rows] = _mix(pool[rows], _hashmix(pool[src], ENTROPY_HASH[step:step + POOL_SIZE]))
        step += POOL_SIZE - 1
    pool = _mix(pool, _hashmix(entropy[POOL_SIZE], ENTROPY_HASH[step:]))  # the label, entropy past the pool
    state = _hashmix(np.concatenate([pool, pool]), STATE_HASH)
    pairs = np.ascontiguousarray(state.T, dtype="<u4").view("<u8")  # uint32 words 2j and 2j + 1 make uint64 j
    for seed_hi, seed_lo, inc_hi, inc_lo in pairs.tolist():
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & MASK128
        state = (((seed_hi << 64 | seed_lo) + inc) * PCG_MULT + inc) & MASK128
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}


_reused = threading.local()


def trial_streams(seeds):
    """Each trial seed's (edge, root) generators, which draw as _stream(seed, label) for each label.

    The states come from one pcg64_states pass per SEED_CHUNK seeds.  Every
    pair is the same two generators, made once per thread, with the next
    seed's states set on them: a pair serves until the next one is taken.
    """
    if not hasattr(_reused, "pair"):  # unseeded: each trial sets both states before it draws
        _reused.pair = (np.random.Generator(np.random.PCG64()), np.random.Generator(np.random.PCG64()))
    edge, root = _reused.pair
    for start in range(0, len(seeds), SEED_CHUNK):
        states = pcg64_states(seeds[start:start + SEED_CHUNK], (EDGE_STREAM, ROOT_STREAM))
        for edge_state, root_state in zip(states, states):
            edge.bit_generator.state = edge_state
            root.bit_generator.state = root_state
            yield edge, root


def select_alpha(mode, n, k):
    """Scaling constant of the sampling probabilities, natural logarithm.

    unit-length instances afford 10 * sqrt(k) * ln n for the stretch factor
    k; the general setting uses 5 * ln n and ignores k.  A graph of fewer
    than 2 vertices has no edge, so any positive constant builds the same
    empty spanner: it takes the n = 2 one.
    """
    log_n = math.log(max(n, 2))
    if mode == "unit":
        return 10.0 * math.sqrt(k) * log_n
    if mode == "general":
        return 5.0 * log_n
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class RoundingParams:
    alpha: float
    k: float


def edge_inclusion_probs(x, alpha, n):
    """Exact per-edge keep probabilities min(alpha * x_e * sqrt(n), 1), a float array over the edges."""
    with np.errstate(over="ignore"):  # a product past the largest double is inf, which clips to 1
        return np.minimum(alpha * np.asarray(x, dtype=float) * math.sqrt(n), 1.0)


def round_edges(probs, rng):
    """Independent Bernoulli keep per edge, one uniform draw in index order: a boolean mask over the edges."""
    return rng.random(len(probs)) < probs


def sample_tree_roots(n, alpha, rng):
    """Independent Bernoulli per vertex with probability min(alpha / sqrt(n), 1)."""
    if n == 0:
        return frozenset()
    p = min(alpha / math.sqrt(n), 1.0)
    return frozenset(np.flatnonzero(rng.random(n) < p).tolist())


@dataclass(frozen=True)
class SpannerResult:
    rounded_edges: np.ndarray  # this and the other edge fields: ascending edge indices of g
    tree_roots: frozenset  # as sample_tree_roots draws them
    tree_edges: np.ndarray
    e_h: np.ndarray
    feasible: bool


def build_spanner(g, lp_sol, params, table, probs, rngs):
    """One full randomized construction from lp_sol plus an exact feasibility check.

    probs is edge_inclusion_probs(lp_sol.x, params.alpha, g.n), which a run
    computes once for all its trials; the body reads only probs, and
    lp_sol stays the second argument because the benchmark's tracer reads
    its x, and params the third (benchmarks/tracer.py).  rngs is the
    trial's (edge, root) generator pair, the labelled streams of its seed:
    a run takes them from trial_streams, and a caller that rebuilds one
    trial can pass _stream(seed, EDGE_STREAM) and _stream(seed, ROOT_STREAM),
    which draw the same.  Each phase's draws are those of round_edges or
    sample_tree_roots alone on its stream.  Every random choice is per-edge or per-vertex independent and
    shortest-path trees never leave a weak component, so a single pass over
    the whole graph equals running each component alone.

    table is the run's DistanceTable of g, which every trial shares.  H is
    one boolean mask, the kept edges ORed with the roots' tree rows; the
    check reads it as it is and the result keeps index arrays.
    """
    edge_rng, root_rng = rngs
    kept = round_edges(probs, edge_rng)
    roots = sample_tree_roots(g.n, params.alpha, root_rng)
    rows = table.trees(roots)
    trees = np.logical_or.reduce(rows) if rows else np.zeros(g.m, dtype=bool)
    h = kept | trees
    return SpannerResult(
        rounded_edges=np.flatnonzero(kept),
        tree_roots=roots,
        tree_edges=np.flatnonzero(trees),
        e_h=np.flatnonzero(h),
        feasible=is_k_spanner(g, h, params.k, table=table).feasible,
    )
