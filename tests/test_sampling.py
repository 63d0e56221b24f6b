"""Seeded draws: the array draws of a block are the scalar draws."""

from hypertheta import assignments_for
from hypertheta.sampling import draw_stream

LABELS = ["2e4.0000", "B17", "C5", "D11", "addition"]


def test_array_draws_equal_assignment_stream():
    """For 5 labels x 50 samples, draw_stream's rows equal the (tau, p1, p2)
    that assignment_stream yields, by repr."""
    stream = draw_stream(3, LABELS)
    blocks = [next(stream) for _ in range(50)]
    for k, label in enumerate(LABELS):
        for block, s in zip(blocks, assignments_for(3, label, 50)):
            assert (repr([complex(column[k]) for column in block])
                    == repr([s.tau.tau1, s.tau.tau2, s.tau.tau12,
                             s.p1.x, s.p1.y, s.p2.x, s.p2.y]))
