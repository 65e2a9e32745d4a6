"""Hard-decision Viterbi decoding with erasure support.

Classic add-compare-select over the code trellis [Viterbi 1967, Forney
1973 — both cited by the paper].  Received coded bits may be marked as
*erased* (the RCPC depuncturer does this for positions the transmitter
never sent); erased positions contribute no branch metric.

For a rate-1/n shift-register code every trellis state has exactly two
incoming branches, and they form butterflies: state ``t`` is entered
from states ``2·(t mod S/2)`` and ``2·(t mod S/2)+1`` on input bit
``t // (S/2)``.  The add-compare-select step therefore vectorizes over
the 2^(K-1) states as strided even/odd views of the path metrics;
:func:`viterbi_decode_batch` additionally vectorizes over whole
*batches* of received blocks, turning the per-step work into
``(batch, states)`` array operations so the Python-level step loop is
paid once per sweep instead of once per packet.  The scalar
:func:`viterbi_decode` is the same kernel at batch size 1, so the two
agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.fec.convolutional import ConvolutionalCode
from repro.obs import runtime as _obs

ERASED = 2  # sentinel value in the received stream: no bit at this slot

#: Most rows one trellis sweep decodes.  Rows are independent, so a
#: larger batch is swept in slices of this many rows, which bounds a
#: decode's transient memory (pattern costs plus the one-byte-per-
#: state-step traceback, ~10 MiB for 1 kbit blocks) whatever the batch.
SWEEP_ROWS = 64


def _transition_tables(code: ConvolutionalCode):
    """Static trellis structure shared across decode calls."""
    n_states = code.n_states
    outputs = code.output_table().reshape(-1, code.n_outputs)
    next_state = code.next_state_table().reshape(-1)
    from_state = np.repeat(np.arange(n_states), 2)
    input_bit = np.tile(np.array([0, 1], dtype=np.uint8), n_states)
    # Each next state has exactly two incoming branches (rate 1/n).
    pred_branches = np.empty((n_states, 2), dtype=np.int32)
    fill = np.zeros(n_states, dtype=np.int32)
    for branch, target in enumerate(next_state):
        pred_branches[target, fill[target]] = branch
        fill[target] += 1
    if not (fill == 2).all():
        raise AssertionError("trellis is not two-in-regular")
    # The add-compare-select kernel relies on the butterfly structure:
    # state t is entered from 2·(t mod S/2) (first) and 2·(t mod S/2)+1
    # (second), both on input bit t // (S/2).
    half = n_states // 2
    targets = np.arange(n_states)
    even = 2 * (targets % half)
    if not (
        (from_state[pred_branches[:, 0]] == even).all()
        and (from_state[pred_branches[:, 1]] == even + 1).all()
        and (input_bit[pred_branches] == (targets // half)[:, None]).all()
    ):
        raise AssertionError("trellis is not a shift-register butterfly")
    # Branches share output symbols: there are only 2**n_outputs
    # distinct patterns, so per-step costs are computed per *pattern*
    # and gathered per branch (the pattern-cost trick).
    place = 1 << np.arange(code.n_outputs - 1, -1, -1)
    branch_pattern = (outputs.astype(np.int64) * place).sum(axis=1)
    all_patterns = (
        (np.arange(1 << code.n_outputs)[:, None] // place[None, :]) % 2
    ).astype(np.uint8)
    # butterfly_pattern[bit, j, parity]: output pattern of the branch
    # from state 2j+parity on input bit ``bit`` (into state bit·S/2 + j).
    butterfly_pattern = branch_pattern[pred_branches].reshape(2, half, 2)
    return (
        outputs,
        from_state,
        input_bit,
        pred_branches,
        branch_pattern,
        all_patterns,
        butterfly_pattern,
    )


_TABLE_CACHE: dict[tuple[int, tuple[int, ...]], tuple] = {}


def _cached_tables(code: ConvolutionalCode):
    key = (code.constraint_length, tuple(code.generators))
    tables = _TABLE_CACHE.get(key)
    if tables is None:
        tables = _transition_tables(code)
        _TABLE_CACHE[key] = tables
    return tables


def viterbi_decode(
    code: ConvolutionalCode,
    received: np.ndarray,
    terminated: bool = True,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Maximum-likelihood decode of ``received`` hard bits.

    ``received`` has ``code.n_outputs`` entries per trellis step, each
    0, 1, or :data:`ERASED`.  ``weights``, when given, assigns each
    received position a confidence in [0, 1]: a disagreement at a
    low-weight position costs proportionally less branch metric.  This
    is poor-man's soft decision — a receiver that *knows* which spans
    an interference burst covered (the WaveLAN modem does, from its AGC
    samples) can down-weight them without discarding them outright.
    Returns the decoded information bits (flush bits stripped when
    ``terminated``).
    """
    received = np.asarray(received, dtype=np.uint8)
    if received.ndim != 1:
        raise ValueError(f"received must be 1-D, got shape {received.shape}")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != received.shape:
            raise ValueError(
                f"weights shape {weights.shape} != received {received.shape}"
            )
        weights = weights[None, :]
    return _decode_batch_impl(code, received[None, :], terminated, weights)[0]


def viterbi_decode_batch(
    code: ConvolutionalCode,
    received: np.ndarray,
    terminated: bool = True,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Decode a ``(batch, length)`` block of received streams at once.

    Row ``i`` of the result equals ``viterbi_decode(code, received[i],
    terminated, weights[i])`` bit for bit — the branch metrics are
    accumulated in the same floating-point order — but the trellis step
    loop runs over ``(batch, states)`` arrays, amortizing the
    Python-level per-step cost across the whole batch.  ``weights``
    (optional) must have the same shape as ``received``; a row of ones
    is exactly equivalent to no weights.  Opens one ``fec.decode_batch``
    trace span per call: a batch is a layer boundary, a single decode
    is not.
    """
    with _obs.trace_span("fec.decode_batch", rows=len(received)):
        return _decode_batch_impl(code, received, terminated, weights)


def _decode_batch_impl(
    code: ConvolutionalCode,
    received: np.ndarray,
    terminated: bool,
    weights: np.ndarray | None,
) -> np.ndarray:
    received = np.asarray(received, dtype=np.uint8)
    if received.ndim != 2:
        raise ValueError(
            f"batched received must be 2-D, got shape {received.shape}"
        )
    batch, length = received.shape
    n_out = code.n_outputs
    if length % n_out != 0:
        raise ValueError(f"received length {length} not a multiple of {n_out}")
    n_steps = length // n_out
    if n_steps == 0 or batch == 0:
        return np.empty((batch, 0), dtype=np.uint8)
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != received.shape:
            raise ValueError(
                f"weights shape {weights.shape} != received {received.shape}"
            )
        weights = weights.reshape(batch, n_steps, n_out)

    *_, all_patterns, butterfly_pattern = _cached_tables(code)

    symbols = received.reshape(batch, n_steps, n_out)
    decoded = np.empty((batch, n_steps), dtype=np.uint8)
    for lo in range(0, batch, SWEEP_ROWS):
        rows = slice(lo, lo + SWEEP_ROWS)
        cost_pattern = _pattern_costs(
            symbols[rows],
            None if weights is None else weights[rows],
            all_patterns,
        )
        decoded[rows] = _acs_numpy(cost_pattern, butterfly_pattern, terminated)

    if terminated:
        tail = code.tail_bits()
        if tail:
            decoded = decoded[:, :-tail]
    return decoded


def _pattern_costs(
    symbols: np.ndarray,
    weights: np.ndarray | None,
    all_patterns: np.ndarray,
) -> np.ndarray:
    """Per-step costs of every output pattern for ``(rows, steps, n)``
    received symbols.

    ``cost_pattern[b, step, p]`` is the (weighted) count of usable
    symbol bits differing from pattern ``p``; branch costs are gathers
    from it — identical floats to a per-branch computation (same terms,
    same summation order over the symbol axis).
    """
    usable = symbols != ERASED
    diffs = all_patterns[None, None, :, :] != symbols[:, :, None, :]
    effective = (diffs & usable[:, :, None, :]).astype(np.float64)
    if weights is not None:
        effective *= weights[:, :, None, :]
    return effective.sum(axis=3)


def _acs_numpy(
    cost_pattern: np.ndarray,
    butterfly_pattern: np.ndarray,
    terminated: bool,
) -> np.ndarray:
    """Numpy butterfly add-compare-select + traceback (all batch rows).

    State ``t = bit·S/2 + j`` is entered from states ``2j`` (first
    predecessor) and ``2j+1`` on input bit ``bit``, so each step's
    candidates are the metrics' even/odd strided views plus the branch
    costs gathered through ``butterfly_pattern``.  One add per
    candidate, strict ``<`` keeping the first predecessor on ties, and
    the first-minimum end state: the float operations and decisions of
    the gather-based formulation, so decoded bits are byte-identical to
    it (kept as the oracle in ``tests/fec/test_acs_kernel.py``).  The
    traceback stores one bool per state-step (entered from the odd
    predecessor?).
    """
    batch, n_steps, _ = cost_pattern.shape
    half = butterfly_pattern.shape[1]
    n_states = 2 * half
    gather = butterfly_pattern.reshape(-1)

    metrics = np.full((batch, n_states), np.float64(1e9))
    metrics[:, 0] = 0.0  # encoder starts in state 0
    odd_choice = np.empty((n_steps, batch, n_states), dtype=bool)
    for step in range(n_steps):
        candidate = metrics.reshape(batch, 1, half, 2) + cost_pattern[
            :, step, :
        ].take(gather, axis=1).reshape(batch, 2, half, 2)
        first, second = candidate[..., 0], candidate[..., 1]
        choice = odd_choice[step].reshape(batch, 2, half)
        np.less(second, first, out=choice)
        metrics = np.where(choice, second, first).reshape(batch, n_states)

    if terminated:
        state = np.zeros(batch, dtype=np.intp)
    else:
        state = np.argmin(metrics, axis=1)  # first minimum, like scalar
    states = np.empty((n_steps, batch), dtype=np.intp)
    planes = odd_choice.reshape(n_steps, batch * n_states)
    row_base = np.arange(batch) * n_states
    for step in range(n_steps - 1, -1, -1):
        states[step] = state
        odd = planes[step].take(row_base + state)
        # Predecessor 2·(state mod S/2) + odd, as shift-and-mask.
        state = ((state << 1) & (n_states - 1)) | odd
    # The input bit into state t is t // (S/2).
    return (states.T // half).astype(np.uint8)
