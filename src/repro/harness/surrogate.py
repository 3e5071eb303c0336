"""Learned surrogate models over the result-cache journal.

Every sweep point the cache has ever stored is a free training
example: the journal records the point's keyword arguments, the
numeric leaves of its result, and the seconds it took to compute.
"Performance Modeling of Data Storage Systems using Generative Models"
(PAPERS.md) shows that cheap learned models predict storage-system
performance with useful accuracy; this module turns the journal into
exactly that -- a deterministic regressor from point kwargs to point
outputs, with an uncertainty estimate.

There is one model, :class:`KnnSurrogate`: a pure-Python
distance-weighted nearest-neighbour regressor whose neighbourhood's
weighted spread is the uncertainty.  It runs on every supported
install -- the package has no third-party dependency -- and it has no
random state: neighbours sort by ``(distance, index)``, so the same
records always produce bit-equal predictions.  The adaptive sweep engine
(:mod:`repro.harness.adaptive`), the suite cost model
(:class:`repro.harness.parallel.CostModel`) and their byte-identity
gates rely on this.

Feature encoding is derived from the records themselves (equivalently,
from the declarative ``sweep()`` axes that produced them): numeric
kwargs are centred on their training mean and scaled by their spread,
non-numeric kwargs one-hot encode over the sorted vocabulary seen at
fit time.  The per-point ``seed`` kwarg is excluded -- it is derived
from the label, so it would memorize points rather than generalize
across them.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

#: Kwargs never used as features: per-point seeds are label-derived
#: (memorization, not signal) and shard knobs change execution, not
#: results.
DEFAULT_EXCLUDE = ("seed", "shards", "shard_mode")

#: Cap on numeric leaves extracted from one result (deterministic:
#: the lexicographically first paths survive).
FLATTEN_LIMIT = 80


# ----------------------------------------------------------------------
# Output flattening
# ----------------------------------------------------------------------
def flatten_numeric(
    value: Any, prefix: str = "", limit: int = FLATTEN_LIMIT
) -> Dict[str, float]:
    """Flatten a JSON-shaped result into ``{dotted.path: float}``.

    Only finite ints/floats survive (bools are control flags, not
    metrics).  Paths sort lexicographically and the first ``limit``
    are kept, so the extraction is deterministic regardless of dict
    iteration order or result size.
    """
    flat: Dict[str, float] = {}

    def visit(node: Any, path: str) -> None:
        if isinstance(node, bool):
            return
        if isinstance(node, (int, float)):
            if math.isfinite(node):
                flat[path] = float(node)
            return
        if isinstance(node, dict):
            for key in node:
                if isinstance(key, str):
                    visit(node[key], f"{path}.{key}" if path else key)
            return
        if isinstance(node, (list, tuple)):
            for index, item in enumerate(node):
                visit(item, f"{path}.{index}" if path else str(index))

    visit(value, prefix)
    if len(flat) <= limit:
        return dict(sorted(flat.items()))
    return dict(sorted(flat.items())[:limit])


# ----------------------------------------------------------------------
# Feature encoding
# ----------------------------------------------------------------------
class FeatureCodec:
    """Encode kwargs dicts as fixed-length float vectors.

    The schema is learned from the training records: every key seen in
    any record becomes either a numeric feature (all observed values
    int/float) or a block of one-hot features over the sorted
    vocabulary of observed values.  Unseen categorical values encode
    as all-zeros; missing keys encode as the key's training mean (so
    prediction never raises).  Numeric features are centred on that
    mean and divided by the training spread, so no axis dominates a
    distance merely by its unit.
    """

    def __init__(
        self,
        numeric: Sequence[str],
        categorical: Mapping[str, Sequence[str]],
        means: Mapping[str, float],
        scales: Mapping[str, float],
    ):
        self.numeric = list(numeric)
        self.categorical = {key: list(vocab) for key, vocab in categorical.items()}
        self.means = dict(means)
        self.scales = dict(scales)
        self.names: List[str] = list(self.numeric)
        for key in self.categorical:
            self.names.extend(f"{key}={value}" for value in self.categorical[key])

    @classmethod
    def from_records(
        cls,
        kwargs_list: Sequence[Mapping[str, Any]],
        exclude: Sequence[str] = DEFAULT_EXCLUDE,
    ) -> "FeatureCodec":
        excluded = set(exclude)
        keys = sorted({key for kwargs in kwargs_list for key in kwargs} - excluded)
        numeric: List[str] = []
        categorical: Dict[str, List[str]] = {}
        means: Dict[str, float] = {}
        scales: Dict[str, float] = {}
        for key in keys:
            values = [kwargs[key] for kwargs in kwargs_list if key in kwargs]
            if values and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
            ):
                numeric.append(key)
                floats = [float(v) for v in values]
                means[key] = sum(floats) / len(floats)
                spread = max(floats) - min(floats)
                scales[key] = spread if spread > 0 else 1.0
            else:
                categorical[key] = sorted({_cat(v) for v in values})
        return cls(numeric, categorical, means, scales)

    def encode(self, kwargs: Mapping[str, Any]) -> List[float]:
        row: List[float] = []
        for key in self.numeric:
            value = kwargs.get(key)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                value = self.means[key]
            row.append((float(value) - self.means[key]) / self.scales[key])
        for key, vocab in self.categorical.items():
            seen = _cat(kwargs.get(key))
            row.extend(1.0 if seen == entry else 0.0 for entry in vocab)
        return row

    def encode_many(self, kwargs_list: Sequence[Mapping[str, Any]]) -> List[List[float]]:
        return [self.encode(kwargs) for kwargs in kwargs_list]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FeatureCodec(numeric={self.numeric}, categorical={sorted(self.categorical)})"


def _cat(value: Any) -> str:
    """Canonical string form of a categorical value."""
    if isinstance(value, bool):
        return f"bool:{value}"
    return f"{type(value).__name__}:{value!r}"


# ----------------------------------------------------------------------
# Nearest-neighbour model
# ----------------------------------------------------------------------
class KnnSurrogate:
    """Distance-weighted k-NN regressor (pure Python, no random state)."""

    def __init__(self, k: int = 5):
        self.k = k
        self._X: List[List[float]] = []
        self._y: List[float] = []
        self._scales: List[float] = []

    def fit(self, X: Sequence[Sequence[float]], y: Sequence[float]) -> "KnnSurrogate":
        self._X = [list(row) for row in X]
        self._y = list(map(float, y))
        if self._X:
            dims = len(self._X[0])
            self._scales = []
            for d in range(dims):
                column = [row[d] for row in self._X]
                spread = max(column) - min(column)
                self._scales.append(spread if spread > 0 else 1.0)
        return self

    def _distance(self, a: Sequence[float], b: Sequence[float]) -> float:
        return math.sqrt(
            sum(((x - z) / s) ** 2 for x, z, s in zip(a, b, self._scales))
        )

    def predict(self, X: Sequence[Sequence[float]]) -> Tuple[List[float], List[float]]:
        means: List[float] = []
        stds: List[float] = []
        if not self._X:
            return [0.0] * len(X), [0.0] * len(X)
        for row in X:
            ranked = sorted(
                (self._distance(row, kept), index) for index, kept in enumerate(self._X)
            )
            nearest = ranked[: self.k]
            if nearest[0][0] == 0.0:
                exact = [self._y[i] for d, i in nearest if d == 0.0]
                mean = sum(exact) / len(exact)
                means.append(mean)
                stds.append(0.0)
                continue
            weights = [1.0 / (d * d) for d, _ in nearest]
            total = sum(weights)
            mean = sum(w * self._y[i] for w, (_, i) in zip(weights, nearest)) / total
            var = (
                sum(w * (self._y[i] - mean) ** 2 for w, (_, i) in zip(weights, nearest))
                / total
            )
            means.append(mean)
            stds.append(math.sqrt(var))
        return means, stds


# ----------------------------------------------------------------------
# Per-target model sets
# ----------------------------------------------------------------------
class SurrogateSet:
    """One codec plus one fitted model per target output path."""

    def __init__(self, codec: FeatureCodec, models: Dict[str, KnnSurrogate]):
        self.codec = codec
        self.models = models

    @classmethod
    def fit(
        cls,
        records: Sequence[Tuple[Mapping[str, Any], Mapping[str, float]]],
        targets: Sequence[str],
        exclude: Sequence[str] = DEFAULT_EXCLUDE,
    ) -> "SurrogateSet":
        """Train on ``(kwargs, outputs)`` pairs, one model per target.

        Records missing a target are skipped for that target's model
        only; a target with no usable records predicts ``(0, 0)``.
        """
        codec = FeatureCodec.from_records([kwargs for kwargs, _ in records], exclude=exclude)
        models: Dict[str, KnnSurrogate] = {}
        for target in targets:
            usable = [
                (kwargs, outputs[target])
                for kwargs, outputs in records
                if isinstance(outputs.get(target), (int, float))
            ]
            models[target] = KnnSurrogate().fit(
                codec.encode_many([kwargs for kwargs, _ in usable]),
                [y for _, y in usable],
            )
        return cls(codec, models)

    def predict(
        self, kwargs_list: Sequence[Mapping[str, Any]]
    ) -> Dict[str, Tuple[List[float], List[float]]]:
        rows = self.codec.encode_many(kwargs_list)
        return {target: model.predict(rows) for target, model in self.models.items()}


# ----------------------------------------------------------------------
# Training data from the cache journal
# ----------------------------------------------------------------------
def journal_records(
    store,
    fn: Optional[str] = None,
    code_fingerprint: Optional[str] = None,
    max_records: Optional[int] = None,
) -> List[dict]:
    """Per-point training records from a cache's journal.

    Filters to one point function (``fn`` as ``module:qualname``) and,
    when given, to records produced under the current code fingerprint
    (stale-code measurements would otherwise poison output targets --
    ``elapsed_s`` consumers typically skip this filter, old timings
    still being better than no timings).  Newest records win the
    ``max_records`` cap.  Never raises: a missing or corrupt journal
    is an empty training set.
    """
    try:
        records = store.read_journal()
    except Exception:
        return []
    out = []
    for record in records:
        if record.get("type") != "point":
            continue
        if fn is not None and record.get("fn") != fn:
            continue
        if code_fingerprint is not None and record.get("code_fingerprint") != code_fingerprint:
            continue
        if not isinstance(record.get("kwargs"), dict):
            continue
        out.append(record)
    if max_records is not None and len(out) > max_records:
        out = out[-max_records:]
    return out
