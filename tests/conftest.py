import os

import pytest

import ray


def pytest_configure(config):
    # a FutureWarning raised from engine code fails the test: pandas 3
    # turns those calls into silent behaviour changes
    config.addinivalue_line("filterwarnings",
                            "error::FutureWarning:mlp_ray")


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory):
    """Deterministic synthetic events_tok fixture (seed 42, 30k rows)."""
    from mlp_ray.synth import write_events_tok
    d = tmp_path_factory.mktemp("events_tok")
    write_events_tok(str(d), n_rows=30_000, seed=42, tok_mean=16,
                     chunks_per_file=1)
    return str(d)


@pytest.fixture(scope="session")
def fixture_paths(fixture_dir):
    return sorted(
        os.path.join(fixture_dir, f) for f in os.listdir(fixture_dir)
        if f.endswith(".parquet")
    )
