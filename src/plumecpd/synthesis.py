"""Shuffle-and-scale synthesis of changepoint instances from real passes.

A measured experiment of N passes is turned into a synthetic 2N-pass
instance by concatenating an independent random permutation of the
original series with an independent random permutation of the series
multiplied by a leak rate ratio (LRR). The change therefore always sits
between passes N and N+1, while the shuffles vary which measurements
land next to the boundary. Repeating the shuffle many times maps out how
detection performance depends on the jump size relative to the signal's
own variability, summarized by the jump-to-noise ratio
JNR = (LRR - 1) / CV.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError


@dataclass(frozen=True)
class ExperimentRecord:
    """One measured experiment: its id, fetch and reduced passes."""

    experiment_id: str
    fetch_m: float
    cy_series: np.ndarray = field(compare=False)

    def __post_init__(self) -> None:
        series = np.asarray(self.cy_series, dtype=float)
        if series.ndim != 1 or series.size < 2:
            raise InsufficientDataError("an experiment needs at least 2 passes")
        if not np.all(np.isfinite(series)):
            raise ValueError("integrated concentrations must be finite")
        if np.any(series < 0):
            raise ValueError("integrated concentrations must be non-negative")
        if not 0 < self.fetch_m < math.inf:
            raise ValueError("fetch must be positive and finite")
        series = series.copy()
        series.setflags(write=False)
        object.__setattr__(self, "cy_series", series)

    @property
    def n_passes(self) -> int:
        return self.cy_series.size


@dataclass(frozen=True)
class SignalStats:
    mean: float
    std: float
    cv: float
    value_range: float
    jnr: float


# numpy's SeedSequence (numpy/random/bit_generator.pyx): its hash and mix
# multipliers and its pool size, in 32-bit words.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _words(n: int) -> list[int]:
    """A non-negative int as SeedSequence takes an entropy entry: its
    little-endian 32-bit words, [0] for 0."""
    return [(n >> s) & _MASK32 for s in range(0, max(n.bit_length(), 1), 32)]


def _hash_constants(init: int, mult: int, count: int) -> list[int]:
    """init * mult^k mod 2^32 for k = 0 .. count - 1."""
    out = [init]
    for _ in range(count - 1):
        out.append((out[-1] * mult) & _MASK32)
    return out


def _hashmix(value, before, after):
    """SeedSequence's hashmix of a word with the hash constant it finds
    (``before``) and leaves (``after``). Words are Python ints or uint64
    arrays of values below 2^32, so one formula serves both."""
    value = ((value ^ before) * after) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return value ^ (value >> 16)


def _seed_words(entropy: list) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` as a (4, rows)
    uint64 array, for entropy words that are Python ints (shared by every
    row) or uint64 arrays (one word per row).

    The hash constants do not depend on the data, so they are computed
    once. The pool is built and cross-mixed word by word, which costs
    Python int arithmetic while its words are shared. Each later entropy
    word mixes into the four pool words independently, so those steps
    and the output hash run on the whole (4, rows) pool at once.
    """
    size = _POOL_WORDS
    n_calls = size * size + size * max(len(entropy) - size, 0)
    hash_a = _hash_constants(_INIT_A, _MULT_A, n_calls + 1)
    k = 0

    def hashmix(value):
        nonlocal k
        k += 1
        return _hashmix(value, hash_a[k - 1], hash_a[k])

    pool = [hashmix(word) for word in (entropy + [0] * size)[:size]]
    for src in range(size):
        for dst in range(size):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    pool = np.vstack(np.broadcast_arrays(*(np.asarray(word, np.uint64) for word in pool)))
    column = np.array(hash_a, np.uint64)[:, np.newaxis]
    for word in entropy[size:]:
        pool = _mix(pool, _hashmix(word, column[k : k + size], column[k + 1 : k + size + 1]))
        k += size
    hash_b = np.array(_hash_constants(_INIT_B, _MULT_B, 2 * size + 1), np.uint64)[:, np.newaxis]
    state = _hashmix(np.tile(pool, (2, 1)), hash_b[:-1], hash_b[1:])
    # Word pairs read as little-endian uint64s.
    return state[0::2] | (state[1::2] << np.uint64(32))


def _pcg64_states(
    master_seed: int, experiment_id: str, lrr: float, start: int, n: int
) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) of instances start .. start + n - 1: those of
    ``PCG64(SeedSequence([master_seed, id_bits, lrr_bits, i]))``, with the
    id's UTF-8 bytes read as a little-endian int and the lrr's IEEE-754
    bit pattern, so that no float is hashed.

    Instances whose index takes as many 32-bit words share every entropy
    word but the index's, and are hashed as one array. PCG64 seeds itself
    from two 128-bit words s and i: inc = 2 i + 1 and
    state = (inc + s) * multiplier + inc, mod 2^128.
    """
    master_seed, start = int(master_seed), int(start)
    if master_seed < 0:
        raise ValueError("master seed must be non-negative")
    if start < 0:
        raise ValueError("instance index must be non-negative")
    lrr_bits = struct.unpack("<Q", struct.pack("<d", float(lrr)))[0]
    id_bits = int.from_bytes(experiment_id.encode("utf-8"), "little")
    shared = _words(master_seed) + _words(id_bits) + _words(lrr_bits)
    states = []
    stop = start + n
    while start < stop:
        size = len(_words(start))
        end = min(stop, 1 << (32 * size))
        index = np.arange(start, end, dtype=object)
        words = [((index >> s) & _MASK32).astype(np.uint64) for s in range(0, 32 * size, 32)]
        seeds = np.broadcast_to(_seed_words(shared + words), (4, end - start)).tolist()
        for s_hi, s_lo, i_hi, i_lo in zip(*seeds):
            inc = ((i_hi << 65) | (i_lo << 1) | 1) & _MASK128
            state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
            states.append((state, inc))
        start = end
    return states


def _instance_generators(
    master_seed: int, experiment_id: str, lrr: float, start: int, n: int
):
    """Yield, for instances start .. start + n - 1 in turn, one Generator
    whose PCG64 is set to that instance's state (``_pcg64_states``): the
    stream ``np.random.Generator(np.random.PCG64(SeedSequence(...)))``
    would give, without building a seed sequence and generator each."""
    states = _pcg64_states(master_seed, experiment_id, lrr, start, n)
    bit_generator = np.random.PCG64(0)  # any seed: every instance sets the state
    rng = np.random.Generator(bit_generator)
    for state, inc in states:
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def instance_rng(
    master_seed: int, experiment_id: str, lrr: float, instance_index: int
) -> np.random.Generator:
    """Deterministic per-instance generator.

    The child seed mixes (master_seed, experiment_id, lrr, instance
    index) through numpy's SeedSequence hash (``_pcg64_states``), so
    instances are reproducible in isolation and independent of evaluation
    order or worker count. The LRR enters via its IEEE-754 bit pattern to
    avoid any float hashing ambiguity.
    """
    return next(_instance_generators(master_seed, experiment_id, lrr, instance_index, 1))


def synthesize_batch(
    exp: ExperimentRecord,
    lrr: float,
    n_instances: int,
    master_seed: int,
    start_index: int = 0,
) -> np.ndarray:
    """Instances ``start_index .. start_index + n_instances - 1`` as the
    rows of an (n_instances, 2N) array, the rate changing after pass N.

    Row i is the series shuffled, then the series times lrr shuffled, both
    by Fisher-Yates draws from the generator ``instance_rng`` gives for
    (master_seed, experiment_id, lrr, i) (the identity permutation is a
    legitimate outcome). The batch's generator states are hashed together,
    and one Generator is set to each in turn. So batches are reproducible
    and may be split across workers without changing any series. The
    pre-change half preserves the original multiset exactly; the
    post-change half preserves the multiset of lrr-scaled values, so the
    half-mean ratio is lrr up to float summation order.
    """
    if n_instances < 1:
        raise ValueError("need at least one instance")
    if not (lrr > 0 and math.isfinite(lrr)):
        raise ValueError("leak rate ratio must be positive and finite")
    series = exp.cy_series
    with np.errstate(over="ignore"):
        scaled = series * lrr
    if not np.isfinite(scaled).all():
        raise ValueError(f"experiment {exp.experiment_id!r} lrr {lrr}: leak rate ratio times a pass overflows")
    n = exp.n_passes
    out = np.empty((n_instances, 2 * n))
    rngs = _instance_generators(master_seed, exp.experiment_id, lrr, start_index, n_instances)
    for row, rng in zip(out, rngs):
        row[:n] = series[rng.permutation(n)]
        row[n:] = scaled[rng.permutation(n)]
    return out


def signal_stats(series: np.ndarray, lrr: float) -> SignalStats:
    """Sample statistics of an original signal and the implied JNR."""
    values = np.asarray(series, dtype=float)
    if values.size < 2:
        raise InsufficientDataError("need at least 2 passes for signal statistics")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(values))
        std = float(np.std(values, ddof=1))
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise ValueError("signal too large: its mean or spread overflows")
    if mean <= 0:
        raise ValueError("signal mean must be positive for a defined CV")
    if std == 0:
        raise ValueError("constant signal has zero CV, JNR undefined")
    cv = std / mean
    return SignalStats(
        mean=mean,
        std=std,
        cv=cv,
        value_range=float(np.max(values) - np.min(values)),
        jnr=(float(lrr) - 1.0) / cv,
    )
