"""Seeded draws: the array draws of a block are the scalar draws."""

from hypertheta.sampling import draw_stream, make_rng, sample_point, sample_tau

LABELS = ["2e4.0000", "B17", "C5", "D11", "addition"]


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
