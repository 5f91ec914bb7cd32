import numpy as np
import pytest

from support_limits import info
from support_limits import model as md
from support_limits.channels import CHANNELS

# (model, b, output alphabet or None for a continuous channel)
CASES = {
    "linear": (md.ModelSpec.linear(0.8), [1.0, -0.6, 0.3], None),
    "one-bit": (md.ModelSpec.one_bit(1.0), [1.0, -0.6, 0.3], (-1.0, 1.0)),
    "group-testing": (md.ModelSpec.group_testing(rho=0.11), [1.0, 1.0, 1.0], (0.0, 1.0)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_density_is_loglik_minus_log_marginal(name):
    model, b, alphabet = CASES[name]
    channel = CHANNELS[model.channel]
    b = np.asarray(b)
    rng = md.rng_stream(5)
    x = channel.draw_design(model, rng, 400, 3, 3)
    y = channel.sample(model, x, b, rng)
    for part in md.enumerate_partitions(3):
        dens = info.density_rows(model, part, b, x, y)
        expected = channel.loglik_rows(model, x, b, y) - channel.log_marginal_rows(
            model, part, x, b, y
        )
        assert np.array_equal(dens, expected)
        if alphabet is None:
            continue
        total = sum(
            np.exp(channel.log_marginal_rows(model, part, x, b, np.full(y.size, v)))
            for v in alphabet
        )
        assert np.allclose(total, 1.0, rtol=0, atol=1e-12)
