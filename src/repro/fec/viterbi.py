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
``(states, batch)`` array operations so the Python-level step loop is
paid once per sweep instead of once per packet.  The scalar
:func:`viterbi_decode` is the same kernel at batch size 1, so the two
agree bit for bit.

Path metrics are exact integers whenever the branch costs are: an
unweighted bit costs 0 or 1, and weights that are non-negative
multiples of 1/:data:`WEIGHT_SCALE` (the soft receivers' 0.25) cost
integers once scaled by it.  Those decodes add and compare int16 (or,
for long blocks, int32) metrics, and an unweighted step's pattern
costs are one table lookup on its received symbol.  Any other
weighting keeps float64 metrics.  Both make exactly the decisions of
float64 metrics (see :func:`_acs_numpy`).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.fec.convolutional import ConvolutionalCode
from repro.obs import runtime as _obs

# Sentinel value in the received stream: no bit at this slot.  With 0
# and 1 it makes each received bit a base-3 digit (see _symbol_costs).
ERASED = 2

#: Most rows one trellis sweep decodes.  Rows are independent, so a
#: larger batch is swept in slices of this many rows, which bounds a
#: decode's transient memory (pattern costs plus the one-bit-per-
#: state-step traceback, ~5 MiB for 1 kbit blocks) whatever the batch.
SWEEP_ROWS = 128

#: Trellis steps the kernel prepares at once: the add-compare-select
#: gathers their branch costs, and the traceback their predecessor
#: tables, in blocks of this many steps (``GATHER_STEPS × 2·states ×
#: rows`` entries at most, whatever the block length).
GATHER_STEPS = 32

#: Weights that are non-negative multiples of ``1 / WEIGHT_SCALE`` give
#: integer branch costs once scaled by it.
WEIGHT_SCALE = 4


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
    terminated, weights[i])`` bit for bit — rows are independent, and
    every metric type makes the same decisions — but the trellis step
    loop runs over ``(states, batch)`` arrays, amortizing the
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
    if received.max() > ERASED:
        raise ValueError("received symbols must be 0, 1 or ERASED")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != received.shape:
            raise ValueError(
                f"weights shape {weights.shape} != received {received.shape}"
            )
        weights = weights.reshape(batch, n_steps, n_out)
    dtype, weights = _metric_units(length, weights)

    *_, all_patterns, butterfly_pattern = _cached_tables(code)

    symbols = received.reshape(batch, n_steps, n_out)
    decoded = np.empty((batch, n_steps), dtype=np.uint8)
    for lo in range(0, batch, SWEEP_ROWS):
        rows = slice(lo, lo + SWEEP_ROWS)
        cost_pattern = _pattern_costs(
            symbols[rows],
            None if weights is None else weights[rows],
            all_patterns,
            dtype,
        )
        decoded[rows] = _acs_numpy(cost_pattern, butterfly_pattern, terminated)

    if terminated:
        tail = code.tail_bits()
        if tail:
            decoded = decoded[:, :-tail]
    return decoded


def _metric_units(
    bits_per_row: int, weights: np.ndarray | None
) -> tuple[np.dtype, np.ndarray | None]:
    """The path-metric dtype of a decode, and its weights in its units.

    An unweighted bit costs 0 or 1; non-negative multiples of
    1/:data:`WEIGHT_SCALE` cost integers once scaled.  No reachable
    path's metric then exceeds ``bound = bits_per_row × largest integer
    weight``, and with an unreachable start above it (see
    :func:`_acs_numpy`) no metric exceeds ``2·bound + 1``: int16 holds
    that for kilobit blocks, int32 for longer ones.  Any other weight,
    or a bound past int32, keeps float64 metrics and the weights as
    given.
    """
    if weights is None:
        largest = 1
    else:
        scaled = weights * WEIGHT_SCALE
        if not (scaled.min() >= 0 and np.array_equal(scaled, np.rint(scaled))):
            return np.dtype(np.float64), weights
        largest = scaled.max()
    bound = bits_per_row * largest
    for dtype in (np.int16, np.int32):
        if 2 * bound + 1 <= np.iinfo(dtype).max:
            return np.dtype(dtype), (
                None if weights is None else scaled.astype(dtype)
            )
    return np.dtype(np.float64), weights


@functools.cache
def _symbol_costs(n_outputs: int) -> np.ndarray:
    """Every output pattern's cost for every received symbol.

    A step's symbol reads as a base-3 code of its ``n_outputs`` bits,
    first bit most significant, each 0, 1 or :data:`ERASED` (2).
    ``table[code, p]`` counts the symbol's unerased bits that differ
    from pattern ``p``, whose bit ``i`` sits at place
    ``2**(n_outputs - 1 - i)`` as in the trellis tables.
    """
    first = np.arange(n_outputs - 1, -1, -1)
    digits = (np.arange(3**n_outputs)[:, None] // 3**first) % 3
    patterns = (np.arange(1 << n_outputs)[:, None] >> first) & 1
    differs = (digits[:, None, :] != patterns[None, :, :]) & (
        digits[:, None, :] != ERASED
    )
    table = differs.sum(axis=2).astype(np.int16)
    table.flags.writeable = False  # shared by every caller
    return table


def _pattern_costs(
    symbols: np.ndarray,
    weights: np.ndarray | None,
    all_patterns: np.ndarray,
    dtype: np.dtype,
) -> np.ndarray:
    """Per-step costs of every output pattern for ``(rows, steps, n)``
    received symbols, in ``dtype``.

    ``cost_pattern[b, step, p]`` is the (weighted) count of usable
    symbol bits differing from pattern ``p``; branch costs are gathers
    from it.  Unweighted integer costs are a lookup of each step's
    symbol code in :func:`_symbol_costs`; weighted ones sum the
    differing bits' weights, already in ``dtype``'s units.  float64
    costs are the float64 sums of the same terms in the same order.
    """
    if weights is None and dtype.kind == "i":
        codes = symbols[:, :, 0].astype(np.intp)
        for bit in range(1, symbols.shape[2]):
            codes = codes * 3 + symbols[:, :, bit]
        return _symbol_costs(symbols.shape[2]).astype(dtype).take(codes, axis=0)
    usable = symbols != ERASED
    effective = (all_patterns[None, None, :, :] != symbols[:, :, None, :]) & (
        usable[:, :, None, :]
    )
    if weights is None:
        return effective.sum(axis=3, dtype=dtype)
    return (effective * weights[:, :, None, :]).sum(axis=3, dtype=dtype)


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
    the first-minimum end state: the decisions of the gather-based
    formulation, so decoded bits are byte-identical to it (kept as the
    oracle in ``tests/fec/test_acs_kernel.py``).  The select is
    ``np.minimum``: on a tie both candidates hold the same value.

    Metrics take the costs' dtype.  Float64 metrics start the
    unreachable states at 1e9.  Integer ones start them one above
    ``steps × largest cost``, the most any reachable path can collect,
    so they lose every comparison against a reachable path just as 1e9
    does.  Integer costs are the float costs times a power of two, and
    the float sums are exact (multiples of 1/4, far below 2^50), so the
    two make the same strict-``<`` decisions and the same first-minimum
    end state.

    Arrays are state-major, ``(states, batch)``, so every per-step
    operation runs along contiguous batch rows.  The forward pass keeps
    one bit per state-step (entered from the odd predecessor?) for the
    traceback.
    """
    metrics, packed = _forward(cost_pattern, butterfly_pattern)
    if terminated:
        end_state = np.zeros(metrics.shape[1], dtype=np.intp)
    else:
        end_state = np.argmin(metrics, axis=0)  # first minimum, like scalar
    return _traceback(packed, metrics.shape, end_state)


def _forward(
    cost_pattern: np.ndarray, butterfly_pattern: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The add-compare-select sweep of :func:`_acs_numpy`.

    Gathers the branch costs of :data:`GATHER_STEPS` steps at a time.
    Candidates are parity-major, ``(parity, bit, j, batch)``, so the
    compare and the select each read two contiguous halves.  A block's
    choices fill one reused bool block, packed once along its flat
    ``state·batch + row`` axis.  Returns the final ``(states, batch)``
    path metrics and the ``(steps, ceil(states·batch / 8))`` packed
    odd-predecessor choices.
    """
    batch, n_steps, _ = cost_pattern.shape
    half = butterfly_pattern.shape[1]
    # butterfly_pattern[bit, j, parity] gathered as [parity, bit, j].
    gather = butterfly_pattern.transpose(2, 0, 1).reshape(-1)
    dtype = cost_pattern.dtype

    if dtype.kind == "f":
        unreachable = 1e9
    else:
        unreachable = n_steps * int(cost_pattern.max()) + 1
    metrics = np.full((2 * half, batch), unreachable, dtype=dtype)
    metrics[0] = 0  # encoder starts in state 0
    # predecessors[parity, 0, j] is state 2j + parity's metric.
    predecessors = metrics.reshape(half, 2, batch).transpose(1, 0, 2)[:, None]
    entered = metrics.reshape(2, half, batch)
    candidate = np.empty((2, 2, half, batch), dtype=dtype)
    first, second = candidate
    choices = np.empty((GATHER_STEPS, 2, half, batch), dtype=bool)
    flat = 2 * half * batch
    packed = np.empty((n_steps, (flat + 7) // 8), dtype=np.uint8)
    step_costs = cost_pattern.transpose(1, 2, 0)  # (steps, patterns, batch)
    for lo in range(0, n_steps, GATHER_STEPS):
        branch = step_costs[lo : lo + GATHER_STEPS].take(gather, axis=1)
        count = branch.shape[0]
        for costs, choice in zip(
            branch.reshape(count, 2, 2, half, batch), choices
        ):
            np.add(predecessors, costs, out=candidate)
            np.less(second, first, out=choice)
            np.minimum(first, second, out=entered)
        packed[lo : lo + count] = np.packbits(
            choices[:count].reshape(count, flat), axis=-1
        )
    return metrics, packed


def _traceback(
    packed: np.ndarray, shape: tuple[int, int], end_state: np.ndarray
) -> np.ndarray:
    """Decoded bits from :func:`_forward`'s packed choices and the end
    states of its ``(states, batch)`` metrics.

    Walks flat indices ``state·batch + row``: a step's predecessor
    table maps each one to the index of ``2·(state mod S/2) + odd``,
    built for :data:`GATHER_STEPS` steps at a time from one unpacked
    block of choices, so each step is one take.
    """
    n_states, batch = shape
    n_steps = packed.shape[0]
    size = n_states * batch
    flat = np.min_scalar_type(size - 1).type
    rows = np.arange(batch)
    even = (
        ((np.arange(n_states) << 1) & (n_states - 1))[:, None] * batch + rows
    ).reshape(-1).astype(flat)
    index = (end_state * batch + rows).astype(flat)
    visited = np.empty((n_steps, batch), dtype=flat)
    block = np.empty((GATHER_STEPS, size), dtype=flat)
    for hi in range(n_steps, 0, -GATHER_STEPS):
        lo = max(0, hi - GATHER_STEPS)
        predecessor = block[: hi - lo]
        np.multiply(
            np.unpackbits(packed[lo:hi], axis=-1, count=size),
            flat(batch),
            out=predecessor,
        )
        predecessor += even
        for step in range(hi - 1, lo - 1, -1):
            visited[step] = index
            index = predecessor[step - lo].take(index)
    # The input bit into state t is t // (S/2).
    return (visited.T // (n_states // 2 * batch)).astype(np.uint8)
