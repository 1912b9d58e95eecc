"""Untimed prepare step: build the per-ISS state every timed run starts from.

Run as ``python3 perfbench/prepare.py <out_dir>`` (``run.py`` does this
once per checkout, in a child process so its memory never counts towards a
run's ``peak_rss_mb``).  It writes:

* ``store/`` -- a ``repro.store`` root holding only the iss10x artefacts
  (vocab, MiniBERT, embeddings), the BERT featurizer pre-training and the
  target retrieval index;
* ``serve_corpus.npz`` -- customer A's retrieved candidate pairs (40 per
  source attribute), encoded, with their source index and a ground-truth
  flag: the request pool of the ``serve`` workload;
* ``tenant.npz`` -- the pre-trained iss10x MiniBERT and matching classifier
  the ``serve`` tenants are published from.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from common import PREPARED_KINDS, entry_kind, iss10x, lsm_config


def build(out_dir: Path) -> None:
    from repro.core import LearnedSchemaMatcher
    from repro.core.artifacts import build_artifacts
    from repro.datasets import load_dataset
    from repro.nn.serialize import state_dict

    work_store = out_dir / "work_store"
    os.environ["REPRO_CACHE_DIR"] = str(work_store)
    task = load_dataset("customer_a")
    iss = iss10x(task)
    artifacts = build_artifacts(iss)
    with LearnedSchemaMatcher(
        task.source, iss, config=lsm_config(), artifacts=artifacts
    ) as matcher:
        featurizer = matcher.bert_featurizer
        store = matcher.store
        views = store.views(range(store.num_pairs))
        encoded = [
            featurizer.tokenizer.encode_attribute_pair(
                view.source_name,
                view.source_description,
                view.target_name,
                view.target_description,
                max_length=featurizer.config.max_length,
            )
            for view in views
        ]
        truth = task.ground_truth
        sources = np.asarray(store.pair_source, dtype=np.int64)
        targets = np.asarray(store.pair_target, dtype=np.int64)
        is_truth = np.asarray(
            [
                truth.get(store.source_refs[int(s)]) == store.target_refs[int(t)]
                for s, t in zip(sources, targets)
            ]
        )
        np.savez(
            out_dir / "serve_corpus.npz",
            input_ids=np.stack([pair.input_ids for pair in encoded]),
            segment_ids=np.stack([pair.segment_ids for pair in encoded]),
            attention_mask=np.stack([pair.attention_mask for pair in encoded]),
            source=sources,
            is_truth=is_truth,
        )
        tensors = {
            f"model.{name}": value
            for name, value in state_dict(featurizer.model).items()
        }
        tensors.update(
            {
                f"classifier.{name}": value
                for name, value in state_dict(featurizer.classifier).items()
            }
        )
        meta = {
            "bert_config": asdict(featurizer.model.config),
            "classifier_size": featurizer.config.classifier_size,
            "special_ids": sorted(featurizer.tokenizer.vocab.special_ids()),
        }
        np.savez(out_dir / "tenant.npz", meta=np.asarray(json.dumps(meta)), **tensors)

    kept = out_dir / "store" / "v1"
    kept.mkdir(parents=True)
    for entry in sorted((work_store / "v1").iterdir()):
        if entry.is_file() and entry_kind(entry.name) in PREPARED_KINDS:
            shutil.copy2(entry, kept / entry.name)
    shutil.rmtree(work_store)


if __name__ == "__main__":
    build(Path(sys.argv[1]))
