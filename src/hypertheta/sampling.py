"""Seeded random draws of period matrices and argument points.

The verification harness samples (tau, p1, p2) triples from a fixed family
chosen so the identity residuals stay well-scaled in double precision:

  * tau:  Im tau1, Im tau2 uniform in [0.8, 2.0]; Re tau1, Re tau2, Re tau12
          uniform in [-0.5, 0.5]; Im tau12 uniform in (-m, m) with
          m = sqrt(Im tau1 * Im tau2 - 0.2), so det Im(T) >= 0.2 always.
  * points: Re parts uniform in [-0.5, 0.5], Im parts uniform in [-0.3, 0.3].

All draws go through numpy's PCG64 so reports reproduce across platforms.
Every identity id gets its own child seed derived from (root seed, id), so a
filtered run (--only) sees exactly the same samples as a full run.
"""

from __future__ import annotations

import hashlib
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


def child_seed(root_seed: int, label: str) -> np.random.SeedSequence:
    """Deterministic per-label seed stream under a common root seed."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return np.random.SeedSequence([root_seed, int.from_bytes(digest[:8], "big")])


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


def draw_stream(root_seed: int, labels) -> Iterator[Draws]:
    """The draws of all labels at sample 0, 1, ... without end, one row per
    label, from one block of 14 uniforms per label and sample: tau first,
    then p1, p2 (order is part of the API: changing it would silently
    change every pinned report).  Row k is what sample_tau, sample_point,
    sample_point draw from make_rng(root_seed, labels[k]), bit for bit."""
    rngs = [make_rng(root_seed, label) for label in labels]
    u = np.empty((len(rngs), 14))
    while True:
        for rng, row in zip(rngs, u):
            rng.random(out=row)
        yield Draws(*(_complex(re, im) for re, im in (
            *_tau_entries(u.T[:6]), *_point_entries(u.T[6:10]),
            *_point_entries(u.T[10:]))))


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
