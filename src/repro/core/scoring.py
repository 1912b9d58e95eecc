"""Post-prediction score adjustments (Section IV-D).

Two schema-level corrections are applied to the meta-learner's raw
probabilities:

* **Data-type filter** -- ``score <- 0`` when the pair's data types are
  incompatible ("in nearly all correct matches, the source and target
  attributes have compatible data types").
* **New-entity penalty** -- ``score <- z * score`` with
  ``z = 1 / (1 + log(1 + sp(a_t, M)))`` when the candidate target's entity is
  not yet part of the matched set ``M``; ``sp`` is the shortest-path distance
  on the ISS join graph.  The heuristic keeps the mapping concentrated on a
  concise, join-connected subset of the ISS.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..schema.graph import JoinGraph
from ..schema.model import AttributeRef, DataType, Schema
from .candidates import CandidateStore

#: A data type's integer code is its position in the enum.
_DTYPE_CODE: dict[DataType, int] = {dtype: code for code, dtype in enumerate(DataType)}
#: ``_COMPATIBLE[a, b]`` is ``is_compatible`` of the types coded ``a`` and
#: ``b``.  Built once from :meth:`DataType.is_compatible`, so a pair's
#: compatibility is a table lookup on its two dtype codes, not a Python call.
_COMPATIBLE = np.array(
    [[source.is_compatible(target) for target in DataType] for source in DataType],
    dtype=bool,
)


def _dtype_codes(schema: Schema, refs: list[AttributeRef]) -> np.ndarray:
    """Integer dtype code of each attribute in ``refs``."""
    codes = [_DTYPE_CODE[schema.attribute(ref).dtype] for ref in refs]
    return np.array(codes, dtype=np.intp)


def _pair_dtype_mask(store: CandidateStore, target_codes: np.ndarray) -> np.ndarray:
    """Per-pair compatibility: gathers over the store's current pair layout.

    Source codes are read from the store's *current* source schema on every
    call, so retyped, renamed, added and dropped columns are always seen.
    """
    source_codes = _dtype_codes(store.source_schema, store.source_refs)
    return _COMPATIBLE[
        source_codes[store.pair_source], target_codes[store.pair_target]
    ]


def dtype_compatibility_mask(store: CandidateStore) -> np.ndarray:
    """Boolean mask, True where the pair's data types are compatible."""
    return _pair_dtype_mask(
        store, _dtype_codes(store.target_schema, store.target_refs)
    )


def entity_penalty(distance: int) -> float:
    """The paper's penalisation term ``z = 1 / (1 + log(1 + sp))``."""
    return 1.0 / (1.0 + np.log1p(float(distance)))


class ScoreAdjuster:
    """Applies the dtype filter and the new-entity penalty to raw scores.

    Both corrections cost O(pairs) array gathers per call.  The target side
    (ISS dtype codes and entity codes) is fixed at construction: the store's
    target attributes never change.  The source side is re-read from the
    store on every call, so schema drift needs no invalidation here.
    """

    def __init__(
        self,
        store: CandidateStore,
        target_schema: Schema,
        apply_dtype_filter: bool = True,
        apply_entity_penalty: bool = True,
    ) -> None:
        self.store = store
        self.apply_dtype_filter = apply_dtype_filter
        self.apply_entity_penalty = apply_entity_penalty
        self._join_graph = JoinGraph(target_schema) if apply_entity_penalty else None
        self._target_dtype_codes = _dtype_codes(store.target_schema, store.target_refs)
        target_entities = [ref.entity for ref in store.target_refs]
        self._entities = list(dict.fromkeys(target_entities))
        entity_code = {entity: code for code, entity in enumerate(self._entities)}
        self._target_entity_codes = np.array(
            [entity_code[entity] for entity in target_entities], dtype=np.intp
        )

    def adjust(self, scores: np.ndarray) -> np.ndarray:
        """Return the adjusted copy of ``scores`` (input is not mutated)."""
        adjusted = scores.astype(np.float64)
        mask = None
        if self.apply_dtype_filter:
            mask = _pair_dtype_mask(self.store, self._target_dtype_codes)
            adjusted[~mask] = 0.0
        if self._join_graph is not None:
            matched_entities = self.store.matched_target_entities()
            if matched_entities:
                # One factor per entity (exactly 1.0 for matched ones, at
                # distance 0), gathered per pair through its target's entity.
                penalty = np.array(
                    [
                        entity_penalty(
                            self._join_graph.distance_to_set(entity, matched_entities)
                        )
                        for entity in self._entities
                    ]
                )
                adjusted *= penalty[self._target_entity_codes[self.store.pair_target]]
        if obs.enabled() and mask is not None:
            obs.check(
                "scoring.dtype_mask_aligned",
                mask.shape[0] == self.store.num_pairs,
                mask_rows=int(mask.shape[0]),
                num_pairs=int(self.store.num_pairs),
            )
            incompatible_nonzero = int(np.count_nonzero(adjusted[~mask]))
            obs.check(
                "scoring.incompatible_pairs_zeroed",
                incompatible_nonzero == 0,
                nonzero=incompatible_nonzero,
            )
        return adjusted
