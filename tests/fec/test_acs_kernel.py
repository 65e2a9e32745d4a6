"""The butterfly add-compare-select kernel against the gather-based one.

``_acs_gather_reference`` below is the add-compare-select + traceback
that ``repro.fec.viterbi`` ran before it switched to the butterfly
formulation, kept verbatim as an oracle: it gathers both predecessors'
metrics and branch costs through the trellis tables and stores an
int32 branch index per state-step.  It runs on float64 pattern costs
from its own builder, ``_reference_pattern_costs`` (the float cost
builder the production decode used before its metrics became
integers), so it shares no cost path with the kernel under test.  The
batch ≡ scalar tests in ``test_batch_decode.py`` cannot see a kernel
change (both sides run the same kernel), so this module pins the
production decode byte-identical to that reference across rates,
termination, erasures, weights, batch sizes on both sides of the
sweep-row cap, and non-default codes, on every metric type: int16
(unweighted and quarter-weighted rows), int32 (a block too long for
int16) and float64 (any other weight).
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


def _reference_pattern_costs(
    symbols: np.ndarray,
    weights: np.ndarray | None,
    all_patterns: np.ndarray,
) -> np.ndarray:
    """Float64 per-step costs of every output pattern.

    ``cost_pattern[b, step, p]`` is the (weighted) count of usable
    symbol bits of ``(rows, steps, n)`` ``symbols`` differing from
    pattern ``p``.
    """
    usable = symbols != ERASED
    diffs = all_patterns[None, None, :, :] != symbols[:, :, None, :]
    effective = (diffs & usable[:, :, None, :]).astype(np.float64)
    if weights is not None:
        effective *= weights[:, :, None, :]
    return effective.sum(axis=3)


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
    cost_pattern = _reference_pattern_costs(
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


def _metric_dtype(received, weights=None) -> np.dtype:
    """The path-metric dtype the production decode picks for a block."""
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
    return viterbi._metric_units(received.shape[1], weights)[0]


def _soft_weights(rng, shape, soft=0.25, share=0.2):
    """Weight 1.0 everywhere but about ``share`` of the positions, which
    get ``soft`` (the receivers' soft marking)."""
    weights = np.ones(shape)
    weights[rng.random(shape) < share] = soft
    return weights


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
    assert _metric_dtype(received) == np.int16
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
    assert _metric_dtype(received, weights) == np.float64
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
    for w in (None, rng.random(received.shape), _soft_weights(rng, received.shape)):
        np.testing.assert_array_equal(
            codec.decode_batch(received, weights=w),
            _reference_rcpc_decode(codec, received, w),
        )


@pytest.mark.parametrize("code_name", sorted(CODES))
@pytest.mark.parametrize("batch", [1, 7, 200])
@pytest.mark.parametrize(
    ("soft", "dtype"), [(0.25, np.int16), (0.3, np.float64)]
)
def test_soft_weights_match_reference(code_name, batch, soft, dtype, rng):
    """Weights of 1.0 and 0.25 (the soft receivers' marking) scale by 4
    to integer costs; 0.3 does not and keeps float64 metrics."""
    code = CODES[code_name]
    received = _received(code, rng, batch, 40, flip=0.08, erase=0.05)
    weights = _soft_weights(rng, received.shape, soft)
    assert _metric_dtype(received, weights) == dtype
    for terminated in (True, False):
        np.testing.assert_array_equal(
            viterbi_decode_batch(
                code, received, terminated=terminated, weights=weights
            ),
            _reference_decode(code, received, terminated, weights),
        )


@pytest.mark.parametrize("weighted", [False, True])
def test_blocks_too_long_for_int16_use_int32(weighted, rng):
    """An unweighted block of 8,206 steps bounds reachable metrics at
    16,412, and a soft-weighted one of 2,106 steps at 16,848 (a weight-1
    bit costs 4): ``2·bound + 1`` no longer fits int16."""
    code = CODES["K7 (171,133)"]
    info_bits = 2100 if weighted else 8200
    received = _received(code, rng, 3, info_bits, flip=0.06, erase=0.05)
    weights = _soft_weights(rng, received.shape) if weighted else None
    assert _metric_dtype(received, weights) == np.int32
    for terminated in (True, False):
        np.testing.assert_array_equal(
            viterbi_decode_batch(
                code, received, terminated=terminated, weights=weights
            ),
            _reference_decode(code, received, terminated, weights),
        )


@pytest.mark.parametrize("soft", [None, 0.25, 0.3])
def test_unterminated_tied_end_metrics_take_the_first_state(soft, rng):
    """With its last K-1 steps erased, an unterminated block reaches
    every end state at the best path's metric, so all end metrics tie
    and the first minimum (state 0) must start the traceback, on the
    int16 and the float64 path alike."""
    code = CODES["K7 (171,133)"]
    received = _received(code, rng, 7, 40, flip=0.06, terminate=False)
    received[:, -code.tail_bits() * code.n_outputs:] = ERASED
    weights = None if soft is None else _soft_weights(rng, received.shape, soft)
    decoded = viterbi_decode_batch(
        code, received, terminated=False, weights=weights
    )
    np.testing.assert_array_equal(
        decoded, _reference_decode(code, received, False, weights)
    )
    # Ending in state 0 decodes the erased tail as zeros.
    assert not decoded[:, -code.tail_bits():].any()


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
