"""pandas FutureWarnings mark calls whose behaviour changes silently in
pandas 3 (e.g. the object-dtype downcast on ``fillna``).  The fold
partials and the pandas oracle must raise none over the fixture."""

import warnings

import pyarrow as pa
import pyarrow.parquet as pq

from mlp_ray import oracle
from mlp_ray.aggs import sinks as sink_defs
from mlp_ray.pipelines.analyze import ATTR_COLUMNS, apply_stage_chain
from mlp_ray.stages.enrich import NsEnricher
from mlp_ray.stages.redact import Redactor


def test_fold_partials_and_oracle_raise_no_future_warning(fixture_paths):
    batch = pa.concat_tables(pq.read_table(p, columns=ATTR_COLUMNS)
                             for p in fixture_paths)
    with warnings.catch_warnings():
        warnings.simplefilter("error", FutureWarning)
        cb = apply_stage_chain(batch, Redactor(), NsEnricher())
        for name in ("main_ops", "query_hash", "plan_cache"):
            mask_fn, spec = sink_defs.ALL_SINKS[name]()
            assert len(spec.partial(cb.filter(mask_fn(cb)))) > 0, name
        cdf = oracle.classify_df(oracle.load(fixture_paths))
        for name, sink in oracle.ORACLE_SINKS.items():
            assert len(sink(cdf)) > 0, name
