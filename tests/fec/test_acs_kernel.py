"""The butterfly add-compare-select kernel against the gather-based one.

``_acs_gather_reference`` below is the add-compare-select + traceback
that ``repro.fec.viterbi`` ran before it switched to the butterfly
formulation, kept verbatim as an oracle: it gathers both predecessors'
metrics and branch costs through the trellis tables and stores an
int32 branch index per state-step.  The batch ≡ scalar tests in
``test_batch_decode.py`` cannot see a kernel change (both sides run
the same kernel), so this module pins the production decode
byte-identical to that reference across rates, termination, erasures,
weights, batch sizes on both sides of the sweep-row cap, and
non-default codes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fec import viterbi
from repro.fec.convolutional import ConvolutionalCode
from repro.fec.rcpc import RATE_ORDER, RcpcCodec
from repro.fec.viterbi import ERASED, SWEEP_ROWS, viterbi_decode_batch


def _acs_gather_reference(
    cost_pattern: np.ndarray,
    branch_pattern: np.ndarray,
    from_state: np.ndarray,
    input_bit: np.ndarray,
    pred_branches: np.ndarray,
    terminated: bool,
) -> np.ndarray:
    """Gather-based add-compare-select + traceback (all batch rows).

    The former ``repro.fec.viterbi._acs_numpy``, body unchanged: it
    takes the gather tables ``viterbi._cached_tables`` returns.
    """
    batch, n_steps, _ = cost_pattern.shape
    n_states = pred_branches.shape[0]
    state_index = np.arange(n_states)

    big = np.float64(1e9)
    metrics = np.full((batch, n_states), big)
    metrics[:, 0] = 0.0  # encoder starts in state 0
    traceback = np.zeros((batch, n_steps, n_states), dtype=np.int32)

    for step in range(n_steps):
        candidate = (
            metrics[:, from_state] + cost_pattern[:, step, branch_pattern]
        )
        two_way = candidate[:, pred_branches]  # (batch, n_states, 2)
        choice = two_way[..., 1] < two_way[..., 0]
        traceback[:, step, :] = pred_branches[
            state_index, choice.astype(np.int8)
        ]
        metrics = np.where(choice, two_way[..., 1], two_way[..., 0])

    if terminated:
        state = np.zeros(batch, dtype=np.int64)
    else:
        state = np.argmin(metrics, axis=1)  # first minimum, like scalar
    decoded = np.empty((batch, n_steps), dtype=np.uint8)
    rows = np.arange(batch)
    for step in range(n_steps - 1, -1, -1):
        branch = traceback[rows, step, state]
        decoded[:, step] = input_bit[branch]
        state = from_state[branch]
    return decoded


def _reference_decode(code, received, terminated=True, weights=None):
    """Whole-batch decode through the gather-based reference kernel."""
    received = np.asarray(received, dtype=np.uint8)
    batch, length = received.shape
    n_out = code.n_outputs
    n_steps = length // n_out
    (_, from_state, input_bit, pred_branches, branch_pattern, all_patterns,
     _) = viterbi._cached_tables(code)
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64).reshape(
            batch, n_steps, n_out
        )
    cost_pattern = viterbi._pattern_costs(
        received.reshape(batch, n_steps, n_out), weights, all_patterns
    )
    decoded = _acs_gather_reference(
        cost_pattern, branch_pattern, from_state, input_bit, pred_branches,
        terminated,
    )
    if terminated and code.tail_bits():
        decoded = decoded[:, : -code.tail_bits()]
    return decoded


def _reference_rcpc_decode(codec, received, weights=None):
    """Depuncture like ``RcpcCodec.decode_batch``, then decode through the
    reference kernel."""
    batch, length = received.shape
    mask = codec._mask(codec._steps_for_length(length))
    mother = np.full((batch, mask.size), ERASED, dtype=np.uint8)
    mother[:, mask] = received
    mother_weights = None
    if weights is not None:
        mother_weights = np.ones(mother.shape)
        mother_weights[:, mask] = weights
    return _reference_decode(codec.code, mother, True, mother_weights)


def _received(code, rng, batch, info_bits, flip=0.05, erase=0.0,
              terminate=True):
    rows = []
    for _ in range(batch):
        bits = rng.integers(0, 2, info_bits).astype(np.uint8)
        coded = code.encode(bits, terminate=terminate)
        coded[rng.random(coded.size) < flip] ^= 1
        if erase:
            coded[rng.random(coded.size) < erase] = ERASED
        rows.append(coded)
    return np.stack(rows)


CODES = {
    "K7 (171,133)": ConvolutionalCode(),
    "K3 (7,5)": ConvolutionalCode(3, (0o7, 0o5)),
    "K5 (23,35)": ConvolutionalCode(5, (0o23, 0o35)),
    "K7 rate-1/3 (133,165,171)": ConvolutionalCode(7, (0o133, 0o165, 0o171)),
}


@pytest.fixture
def rng():
    return np.random.default_rng(1302)


def test_batch_sizes_straddle_the_sweep_cap():
    assert 7 < SWEEP_ROWS < 200


@pytest.mark.parametrize("code_name", sorted(CODES))
@pytest.mark.parametrize("terminated", [True, False])
@pytest.mark.parametrize("batch", [1, 7, 200])
def test_butterfly_matches_gather_reference(code_name, terminated, batch, rng):
    code = CODES[code_name]
    received = _received(
        code, rng, batch, 40, flip=0.06, erase=0.1, terminate=terminated
    )
    np.testing.assert_array_equal(
        viterbi_decode_batch(code, received, terminated=terminated),
        _reference_decode(code, received, terminated),
    )


@pytest.mark.parametrize("code_name", sorted(CODES))
@pytest.mark.parametrize("batch", [1, 7, 200])
def test_butterfly_matches_reference_with_random_weights(code_name, batch, rng):
    code = CODES[code_name]
    received = _received(code, rng, batch, 40, flip=0.08, erase=0.05)
    weights = rng.random(received.shape)
    for terminated in (True, False):
        np.testing.assert_array_equal(
            viterbi_decode_batch(
                code, received, terminated=terminated, weights=weights
            ),
            _reference_decode(code, received, terminated, weights),
        )


def test_tied_metrics_keep_the_first_predecessor(rng):
    """All-erased and all-zero-weight streams tie every candidate pair at
    every step: the kernel must resolve them exactly like the reference
    (strict ``<`` keeps the even predecessor, first-minimum end state)."""
    code = CODES["K7 (171,133)"]
    erased = np.full((3, 2 * 30), ERASED, dtype=np.uint8)
    zero_weight = _received(code, rng, 3, 24)
    for terminated in (True, False):
        np.testing.assert_array_equal(
            viterbi_decode_batch(code, erased, terminated=terminated),
            _reference_decode(code, erased, terminated),
        )
        weights = np.zeros(zero_weight.shape)
        np.testing.assert_array_equal(
            viterbi_decode_batch(
                code, zero_weight, terminated=terminated, weights=weights
            ),
            _reference_decode(code, zero_weight, terminated, weights),
        )


@pytest.mark.parametrize("rate_name", RATE_ORDER)
@pytest.mark.parametrize("batch", [1, 7, 200])
def test_rcpc_rates_match_reference(rate_name, batch, rng):
    codec = RcpcCodec(rate_name)
    rows = []
    for _ in range(batch):
        transmitted = codec.encode(rng.integers(0, 2, 48).astype(np.uint8))
        transmitted[rng.random(transmitted.size) < 0.04] ^= 1
        transmitted[rng.random(transmitted.size) < 0.03] = ERASED
        rows.append(transmitted)
    received = np.stack(rows)
    weights = rng.random(received.shape)
    for w in (None, weights):
        np.testing.assert_array_equal(
            codec.decode_batch(received, weights=w),
            _reference_rcpc_decode(codec, received, w),
        )


def test_non_butterfly_trellis_is_rejected():
    """A code whose trellis is not the shift-register butterfly fails
    loudly when its tables are built, rather than decoding wrongly."""

    class Scrambled(ConvolutionalCode):
        def __post_init__(self):
            super().__post_init__()
            # Relabel next states 0 <-> 1: still two-in-regular, but no
            # longer the 2·(t mod S/2) butterfly.
            swap = self._next_state.copy()
            swap[self._next_state == 0] = 1
            swap[self._next_state == 1] = 0
            self._next_state = swap

    with pytest.raises(AssertionError, match="butterfly"):
        viterbi._transition_tables(Scrambled())
