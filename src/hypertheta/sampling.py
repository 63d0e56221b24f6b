"""Seeded random draws of period matrices and argument points.

The verification harness samples (tau, p1, p2) triples from a fixed family
chosen so the identity residuals stay well-scaled in double precision:

  * tau:  Im tau1, Im tau2 uniform in [0.8, 2.0]; Re tau1, Re tau2, Re tau12
          uniform in [-0.5, 0.5]; Im tau12 uniform in (-m, m) with
          m = sqrt(Im tau1 * Im tau2 - 0.2), so det Im(T) >= 0.2 always.
  * points: Re parts uniform in [-0.5, 0.5], Im parts uniform in [-0.3, 0.3].

Every label (an identity id, or a suite's name) gets its own stream:
numpy's PCG64 seeded by SeedSequence([root seed, 64-bit sha256 prefix of
the label]), so a filtered run (--only) sees exactly the same samples as a
full run.  make_rng builds that generator for one label.  draw_stream runs
the same two algorithms for all labels at once, as uint32 and 128-bit
(hi, lo) uint64 array arithmetic, bit for bit numpy's streams: one
SeedSequence and PCG64 cost about 12 us to build, so the first two samples
of the 200 catalog ids take 3.0 ms through numpy's generators and 0.47 ms
as arrays (timeit, min of 7, 2-core host).  SeedSequence's entropy
mixing and PCG64's seeding and XSL-RR output are numpy's
(numpy/random/bit_generator.pyx, numpy/random/src/pcg64/pcg64.h; O'Neill,
HMC-CS-2014-0905); the 14 states of a sample follow from the state s the
last sample left by jump-ahead, s_k = A_k s + C_k with A_k = M^k and
C_k = (M^(k-1) + ... + M + 1) inc mod 2^128 (F. Brown, Trans. Am. Nucl.
Soc. 1994).  A change of numpy's bit streams would part the two;
test_sampling compares them.
"""

from __future__ import annotations

import functools
import hashlib
import operator
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .theta_core import EvalPoint, PeriodMatrix

TAU_IM_DIAG = (0.8, 2.0)
TAU_RE = (-0.5, 0.5)
TAU_DET_FLOOR = 0.2
POINT_RE = (-0.5, 0.5)
POINT_IM = (-0.3, 0.3)


@dataclass(frozen=True)
class SampleAssignment:
    """One drawn (tau, p1, p2) triple plus the integer seed that labels it."""

    tau: PeriodMatrix
    p1: EvalPoint
    p2: EvalPoint
    seed: int


def _label_digest(label: str) -> int:
    """The first 8 bytes of the label's sha256, big-endian."""
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8],
                          "big")


def child_seed(root_seed: int, label: str) -> np.random.SeedSequence:
    """Deterministic per-label seed stream under a common root seed."""
    return np.random.SeedSequence([root_seed, _label_digest(label)])


def make_rng(root_seed: int, label: str) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(child_seed(root_seed, label)))


def _between(lo: float, hi: float, u: float) -> float:
    """The affine map of u in [0, 1) onto [lo, hi), as rng.uniform does it."""
    return lo + (hi - lo) * u


def _tau_entries(u):
    """(Re, Im) of tau1, tau2 and tau12 from six uniforms, or from six
    arrays of them: Im tau1, Im tau2, Im tau12, then Re tau1, Re tau2,
    Re tau12.  The one map of both the scalar and the array draws."""
    im1, im2 = (_between(*TAU_IM_DIAG, v) for v in u[:2])
    margin = np.sqrt(im1 * im2 - TAU_DET_FLOOR)
    im12 = _between(-margin, margin, u[2])
    re1, re2, re12 = (_between(*TAU_RE, v) for v in u[3:6])
    return (re1, im1), (re2, im2), (re12, im12)


def _point_entries(u):
    """(Re, Im) of x and y from four uniforms, or from four arrays of them:
    Re x, Re y, Im x, Im y."""
    re_x, re_y = (_between(*POINT_RE, v) for v in u[:2])
    im_x, im_y = (_between(*POINT_IM, v) for v in u[2:4])
    return (re_x, im_x), (re_y, im_y)


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """complex(re, im) per element."""
    out = re.astype(complex)
    out.imag = im
    return out


def sample_tau(rng: np.random.Generator) -> PeriodMatrix:
    """The period matrix of six uniforms (_tau_entries)."""
    tau = PeriodMatrix(*(complex(re, im) for re, im
                         in _tau_entries(rng.random(6).tolist())))
    tau.validate()
    return tau


def sample_point(rng: np.random.Generator) -> EvalPoint:
    """The point of four uniforms (_point_entries)."""
    return EvalPoint(*(complex(re, im) for re, im
                       in _point_entries(rng.random(4).tolist())))


class Draws(NamedTuple):
    """Drawn (tau, p1 = (x1, y1), p2 = (x2, y2)) triples as complex arrays,
    one row per draw."""

    tau1: np.ndarray
    tau2: np.ndarray
    tau12: np.ndarray
    x1: np.ndarray
    y1: np.ndarray
    x2: np.ndarray
    y2: np.ndarray

    @classmethod
    def of(cls, samples) -> "Draws":
        """The rows of SampleAssignments, in order."""
        return cls(*(np.array(column, dtype=complex) for column in zip(*(
            (s.tau.tau1, s.tau.tau2, s.tau.tau12, s.p1.x, s.p1.y, s.p2.x,
             s.p2.y) for s in samples))))


# SeedSequence's pool size and hash constants, and PCG64's multiplier.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64 = (1 << 32) - 1, (1 << 64) - 1
_U32_16 = np.uint32(16)
_U64 = {n: np.uint64(n) for n in (1, 11, 32, 58, 63, 64)}
_LOW32 = np.uint64(_MASK32)
_2_NEG53 = np.float64(2.0 ** -53)
_BLOCK = 14  # uniforms per label and sample: 6 for tau, 4 for each point


def _int_words(n: int) -> list[int]:
    """A non-negative integer as SeedSequence coerces it: its uint32 words,
    low word first, one word 0 for 0."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _u128(values) -> tuple[np.ndarray, np.ndarray]:
    """Integers below 2^128 as (hi, lo) uint64 arrays."""
    return (np.array([v >> 64 for v in values], np.uint64),
            np.array([v & _MASK64 for v in values], np.uint64))


def _add128(a, b):
    """(hi, lo) + (hi, lo) mod 2^128."""
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < b[1]), lo


def _mul128(a, b):
    """(hi, lo) * (hi, lo) mod 2^128: the low words' full product from
    their 32-bit halves, plus the high words' cross terms."""
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    a1, a0 = a_lo >> _U64[32], a_lo & _LOW32
    b1, b0 = b_lo >> _U64[32], b_lo & _LOW32
    # Neither sum can wrap: (2^32 - 1)^2 + 2 (2^32 - 1) < 2^64.
    mid = a1 * b0 + ((a0 * b0) >> _U64[32])
    low_mid = a0 * b1 + (mid & _LOW32)
    hi = (a1 * b1 + (mid >> _U64[32]) + (low_mid >> _U64[32])
          + a_hi * b_lo + a_lo * b_hi)
    return hi, a_lo * b_lo


# s_(n+k) = A_k s_n + C_k with A_k = M^k and C_k = S_k inc, where
# S_k = M^(k-1) + ... + M + 1, for k = 1 .. _BLOCK.
_JUMP_A = _u128([pow(_PCG_MULT, k, 1 << 128) for k in range(1, _BLOCK + 1)])
_JUMP_S = _u128([sum(pow(_PCG_MULT, j, 1 << 128) for j in range(k))
                 % (1 << 128) for k in range(1, _BLOCK + 1)])
_PCG_M = _u128([_PCG_MULT])


def _hash_constants(init: int, mult: int, n: int) -> tuple[np.ndarray,
                                                           np.ndarray]:
    """The xor and multiply constants of n successive SeedSequence hashes,
    as uint32 arrays: each hash xors with the running constant, advances
    it by `mult`, then multiplies by it."""
    running = [init]
    for _ in range(n):
        running.append(running[-1] * mult & _MASK32)
    return (np.array(running[:-1], np.uint32),
            np.array(running[1:], np.uint32))


def _hash(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mul
    return value ^ (value >> _U32_16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = _MIX_L * x - _MIX_R * y
    return value ^ (value >> _U32_16)


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(row).generate_state(4, np.uint64) for each row of a
    (rows, words) uint32 array of entropy words: mix_entropy into a pool of
    4 words, then 8 hashed pool words paired low word first.  Where
    mix_entropy hashes one word into each of several pool words in turn,
    with successive constants, this hashes it into all of them at once."""
    n = entropy.shape[1]
    xor, mul = _hash_constants(
        _INIT_A, _MULT_A, _POOL * _POOL + _POOL * max(n - _POOL, 0))
    pool = np.zeros((len(entropy), _POOL), np.uint32)
    pool[:, :n] = entropy[:, :_POOL]
    pool = _hash(pool, xor[:_POOL], mul[:_POOL])
    k = _POOL
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        pool[:, dst] = _mix(pool[:, dst], _hash(
            pool[:, src, None], xor[k:k + _POOL - 1], mul[k:k + _POOL - 1]))
        k += _POOL - 1
    for word in range(_POOL, n):
        pool = _mix(pool, _hash(entropy[:, word, None],
                                xor[k:k + _POOL], mul[k:k + _POOL]))
        k += _POOL
    out = _hash(np.tile(pool, 2), *_hash_constants(_INIT_B, _MULT_B,
                                                   2 * _POOL))
    out = out.astype(np.uint64)
    return out[:, 0::2] | (out[:, 1::2] << _U64[32])


@functools.lru_cache(maxsize=16)
def _label_entropy(labels: tuple[str, ...]):
    """The labels' entropy words grouped by count: (rows, words) pairs with
    words a read-only (len(rows), count) uint32 array.  A digest below
    2^32 is one word."""
    groups: dict[int, tuple[list[int], list[list[int]]]] = {}
    for k, label in enumerate(labels):
        words = _int_words(_label_digest(label))
        rows, block = groups.setdefault(len(words), ([], []))
        rows.append(k)
        block.append(words)
    out = []
    for rows, block in groups.values():
        words = np.array(block, np.uint32)
        words.flags.writeable = False
        out.append((np.array(rows), words))
    return out


def _pcg64_states(root_seed: int, labels: tuple[str, ...]) -> tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The state and increment, as (hi, lo) uint64 arrays, of
    np.random.PCG64(child_seed(root_seed, label)) for each label, as
    pcg64_set_seed makes them from generate_state's (initstate hi, lo,
    initseq hi, lo): state 0, inc = (initseq << 1) | 1, a step,
    state += initstate, a step."""
    root = np.array(_int_words(root_seed), np.uint32)
    seeds = np.empty((len(labels), 4), np.uint64)
    for rows, words in _label_entropy(labels):
        entropy = np.empty((len(rows), len(root) + words.shape[1]),
                           np.uint32)
        entropy[:, :len(root)] = root
        entropy[:, len(root):] = words
        seeds[rows] = _seed_states(entropy)
    init = seeds[:, 0], seeds[:, 1]
    seq_hi, seq_lo = seeds[:, 2], seeds[:, 3]
    inc = ((seq_hi << _U64[1]) | (seq_lo >> _U64[63]),
           (seq_lo << _U64[1]) | _U64[1])
    state = _add128(_mul128(_add128(inc, init), _PCG_M), inc)
    return (*state, *inc)


def _uniforms(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's doubles of states (hi, lo): the XSL-RR output
    rotr(hi ^ lo, hi >> 58), then its top 53 bits times 2^-53."""
    x, rot = hi ^ lo, hi >> _U64[58]
    x = (x >> rot) | (x << ((_U64[64] - rot) & _U64[63]))
    return (x >> _U64[11]).astype(np.float64) * _2_NEG53


def draw_stream(root_seed: int, labels) -> Iterator[Draws]:
    """The draws of all labels at sample 0, 1, ... without end, one row per
    label, from one block of 14 uniforms per label and sample: tau first,
    then p1, p2 (order is part of the API: changing it would silently
    change every pinned report).  Row k is what sample_tau, sample_point,
    sample_point draw from make_rng(root_seed, labels[k]), bit for bit,
    though no generator is built: the labels' streams are seeded and
    stepped together as arrays (module docstring)."""
    hi, lo, inc_hi, inc_lo = _pcg64_states(root_seed, tuple(labels))
    jump_c = _mul128(_JUMP_S, (inc_hi[:, None], inc_lo[:, None]))
    state = hi[:, None], lo[:, None]
    while True:
        hi, lo = _add128(_mul128(state, _JUMP_A), jump_c)
        state = hi[:, -1:], lo[:, -1:]
        u = _uniforms(hi, lo).T
        yield Draws(*(_complex(re, im) for re, im in (
            *_tau_entries(u[:6]), *_point_entries(u[6:10]),
            *_point_entries(u[10:]))))


def assignments_for(root_seed: int, label: str, n: int) -> list[SampleAssignment]:
    """The first n rows draw_stream(root_seed, [label]) yields, sample i
    labelled i."""
    rows = draw_stream(root_seed, [label])
    out = []
    for i in range(n):
        tau1, tau2, tau12, x1, y1, x2, y2 = (complex(c[0]) for c in next(rows))
        out.append(SampleAssignment(PeriodMatrix(tau1, tau2, tau12),
                                    EvalPoint(x1, y1), EvalPoint(x2, y2), i))
    return out
