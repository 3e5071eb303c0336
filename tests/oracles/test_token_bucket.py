"""The dual token bucket admits no more than its rate allows.

An analytic oracle on ``repro.core.rate_control.DualTokenBucket``
(Algorithm 4), driven by hypothesis sequences of ``update`` and
``consume`` at one fixed target rate ``R`` (bytes/us).

**Admission bound.**  Tokens appear only in ``update``: the bucket
adds ``R x elapsed`` since its previous update and truncation can only
lose some.  Both buckets start full at ``bucket_max_tokens``, and
``consume`` refuses a cost larger than its bucket holds.  So at every
point, with ``T`` the time of the latest update,

    total consumed  <=  R x T + 2 x bucket_max_tokens.

**Split and spill.**  One update's gain ``g = R x elapsed`` splits into
a read share ``g x c / (1 + c)`` and a write share ``g / (1 + c)``,
with ``c`` the write cost.  If neither share overflows its bucket, each
bucket grows by exactly its share.  If one overflows, the excess spills
into the sibling, so the two buckets together still grow by exactly
``g``, until both reach the cap: the sum after the update is
``min(sum before + g, 2 x bucket_max_tokens)``, and neither bucket
ever holds more than the cap.

**Tolerance.**  Only float rounding: every comparison of sums allows
an absolute error of ``1e-9 x (2 x bucket_max_tokens + g)`` per update
(and ``1e-9 x (2 x bucket_max_tokens + R x T)`` for the admission
bound); the cap itself is checked exactly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GimbalParams
from repro.core.rate_control import DualTokenBucket
from repro.ssd.commands import OP_READ, OP_TRIM, OP_WRITE

PARAMS = GimbalParams()
CAP = PARAMS.bucket_max_tokens
REL = 1e-9

updates = st.tuples(
    st.just("update"),
    # Elapsed us; 0 repeats the previous update's time.
    st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=5_000.0)),
    # Write cost; Gimbal's estimator keeps it >= 1, the split holds for any c > 0.
    st.floats(min_value=0.25, max_value=32.0),
)
consumes = st.tuples(
    st.just("consume"),
    st.sampled_from([OP_READ, OP_WRITE, OP_TRIM]),
    st.integers(min_value=1, max_value=int(2 * CAP)),
)


@settings(max_examples=300, deadline=None)
@given(
    rate=st.floats(min_value=0.01, max_value=8_000.0),
    steps=st.lists(st.one_of(updates, consumes), max_size=80),
)
def test_admission_and_split(rate, steps):
    bucket = DualTokenBucket(PARAMS)
    now = 0.0
    consumed = 0
    for step in steps:
        before = (bucket.read_tokens, bucket.write_tokens)
        if step[0] == "update":
            _, elapsed, cost = step
            now += elapsed
            bucket.update(now, rate, cost)
            after = (bucket.read_tokens, bucket.write_tokens)
            assert after[0] <= CAP and after[1] <= CAP
            gain = rate * elapsed
            tol = REL * (2 * CAP + gain)
            if elapsed == 0.0:
                assert after == before
                continue
            read_share = gain * (cost / (1.0 + cost))
            write_share = gain * (1.0 / (1.0 + cost))
            if before[0] + read_share <= CAP and before[1] + write_share <= CAP:
                assert after[0] - before[0] == pytest.approx(read_share, abs=tol)
                assert after[1] - before[1] == pytest.approx(write_share, abs=tol)
            assert sum(after) == pytest.approx(min(sum(before) + gain, 2 * CAP), abs=tol)
        else:
            _, op, nbytes = step
            own = 0 if op is OP_READ else 1
            if before[own] < nbytes:
                with pytest.raises(ValueError):
                    bucket.consume(op, nbytes)
                assert (bucket.read_tokens, bucket.write_tokens) == before
                continue
            bucket.consume(op, nbytes)
            consumed += nbytes
        bound = rate * now + 2 * CAP
        assert consumed <= bound + REL * bound
