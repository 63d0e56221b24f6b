"""Seeded draws: the array draws of a block are the scalar draws, and the
array streams are numpy's SeedSequence and PCG64 streams bit for bit."""

import warnings

import numpy as np
import pytest

from hypertheta import sampling
from hypertheta.identity_catalog import build_catalog
from hypertheta.sampling import (
    Draws,
    SampleAssignment,
    assignments_for,
    draw_stream,
    make_rng,
    sample_point,
    sample_tau,
)

LABELS = ["2e4.0000", "B17", "C5", "D11", "addition"]
CATALOG_IDS = [i.id for i in build_catalog()]


def test_array_draws_equal_assignment_stream():
    """For 5 labels x 50 samples, draw_stream's rows equal the (tau, p1, p2)
    that sample_tau, sample_point, sample_point draw from the label's
    generator, by repr."""
    stream = draw_stream(3, LABELS)
    blocks = [next(stream) for _ in range(50)]
    for k, label in enumerate(LABELS):
        rng = make_rng(3, label)
        for block in blocks:
            tau, p1, p2 = sample_tau(rng), sample_point(rng), sample_point(rng)
            assert (repr([complex(column[k]) for column in block])
                    == repr([tau.tau1, tau.tau2, tau.tau12,
                             p1.x, p1.y, p2.x, p2.y]))


def _generator_draws(seed, labels, n):
    """The first n Draws of make_rng's generators, one row per label."""
    rngs = [make_rng(seed, label) for label in labels]
    return [Draws.of([SampleAssignment(sample_tau(rng), sample_point(rng),
                                       sample_point(rng), i) for rng in rngs])
            for i in range(n)]


def _assert_same_bits(got: Draws, want: Draws):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype == complex
        np.testing.assert_array_equal(g.view(np.uint64), w.view(np.uint64))


@pytest.mark.parametrize("seed", [0, 3, 2**32 - 1, 2**32, 2**64 + 5,
                                  1050000775, 2**130 + 5])
def test_array_streams_equal_generators_for_every_catalog_id(seed):
    """All 200 catalog ids, 3 samples (so the state carried from one sample
    to the next is checked), root seeds of one to five uint32 words: the
    entropy fills part of SeedSequence's pool of 4, all of it, or
    outgrows it.  Equal to the bit, without a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stream = draw_stream(seed, CATALOG_IDS)
        got = [next(stream) for _ in range(3)]
    for g, w in zip(got, _generator_draws(seed, CATALOG_IDS, 3)):
        _assert_same_bits(g, w)


@pytest.mark.parametrize("root", [0, 3, 2**32 - 1, 2**32, 2**64 + 5,
                                  2**130 + 5])
def test_seeding_equals_seed_sequence(root):
    """The seeding helper is SeedSequence([root, d]).generate_state(4,
    np.uint64) for label digests d of one uint32 word, which no catalog id
    has, and of two, several rows at a time."""
    for digests in ([0, 1, 7, 2**31, 2**32 - 1],
                    [2**32, 2**63 + 11, 2**64 - 1]):
        entropy = np.array([sampling._int_words(root) + sampling._int_words(d)
                            for d in digests], np.uint32)
        got = sampling._seed_states(entropy)
        for row, d in zip(got, digests, strict=True):
            want = np.random.SeedSequence([root, d]).generate_state(
                4, np.uint64)
            np.testing.assert_array_equal(row, want)


def test_one_word_labels_mixed_with_two_word_labels(monkeypatch):
    """Labels whose digest is below 2^32 (made so here) are seeded as their
    own group and put back in their rows: the stream is still each
    label's generator's."""
    digest = sampling._label_digest
    small = {"B3": 5, "C9": 2**32 - 1, "D2": 0}
    monkeypatch.setattr(sampling, "_label_digest",
                        lambda label: small.get(label, digest(label)))
    sampling._label_entropy.cache_clear()
    try:
        labels = ["B1", "B3", "C5", "C9", "D2", "D11"]
        stream = draw_stream(2**32 + 7, labels)
        got = [next(stream) for _ in range(3)]
        for g, w in zip(got, _generator_draws(2**32 + 7, labels, 3)):
            _assert_same_bits(g, w)
    finally:
        sampling._label_entropy.cache_clear()


def test_single_labels_and_label_subsets_draw_their_own_rows():
    """assignments_for of one label, and the chunks that --jobs 2 gives
    its workers, draw each label's rows of the full stream."""
    stream = draw_stream(0, CATALOG_IDS)
    full = [next(stream) for _ in range(3)]
    for k in (0, 57, 199):
        for i, s in enumerate(assignments_for(0, CATALOG_IDS[k], 3)):
            assert (repr([s.tau.tau1, s.tau.tau2, s.tau.tau12,
                          s.p1.x, s.p1.y, s.p2.x, s.p2.y])
                    == repr([complex(column[k]) for column in full[i]]))
    for start in (0, 1):
        chunk = draw_stream(0, CATALOG_IDS[start::2])
        for block in full:
            _assert_same_bits(next(chunk),
                              Draws(*(c[start::2].copy() for c in block)))


def test_draw_stream_builds_no_generator(monkeypatch):
    """The array streams build no SeedSequence, PCG64 or Generator."""
    def refuse(*args, **kwargs):
        raise AssertionError("numpy generator built")

    for name in ("SeedSequence", "PCG64", "Generator"):
        monkeypatch.setattr(np.random, name, refuse)
    stream = draw_stream(5, CATALOG_IDS)
    next(stream), next(stream)
    with pytest.raises(AssertionError, match="numpy generator built"):
        make_rng(5, "addition")
