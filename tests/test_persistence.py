"""Tests for system persistence and the admin CLI flow."""

import numpy as np
import pytest

from repro.core import AdminConfig, JustInTime, load_system, save_system
from repro.data import john_profile, make_lending_dataset
from repro.exceptions import StorageError
from repro.temporal import lending_update_function


@pytest.fixture(scope="module")
def trained(schema):
    system = JustInTime(
        schema,
        lending_update_function(schema),
        AdminConfig(T=2, strategy="last", k=4, max_iter=8, random_state=0),
    )
    system.fit(make_lending_dataset(n_per_year=100, random_state=5))
    return system


class TestSaveLoad:
    def test_roundtrip_scores_identical(self, trained, tmp_path, john):
        path = tmp_path / "system.pkl"
        save_system(trained, path)
        loaded = load_system(path)
        for t in range(3):
            assert loaded.future_models.score(john, t) == pytest.approx(
                trained.future_models.score(john, t)
            )
        assert np.allclose(loaded.diff_scale, trained.diff_scale)
        assert loaded.time_values == trained.time_values

    def test_loaded_system_serves_sessions(self, trained, tmp_path):
        path = tmp_path / "system.pkl"
        save_system(trained, path)
        loaded = load_system(path)
        session = loaded.create_session(
            "u", john_profile(), user_constraints=["gap <= 3"]
        )
        insights = session.all_insights(alpha=0.6, feature="monthly_debt")
        assert len(insights) == 6

    def test_sessions_match_original(self, trained, tmp_path):
        path = tmp_path / "system.pkl"
        save_system(trained, path)
        loaded = load_system(path)
        a = trained.create_session("u", john_profile())
        b = loaded.create_session("u", john_profile())
        def key(c):
            return (c.time, tuple(np.round(c.x, 9)))

        assert sorted(map(key, a.candidates)) == sorted(map(key, b.candidates))
        trained.store.clear_user("u")

    def test_file_backed_store_attachment(self, trained, tmp_path):
        pkl = tmp_path / "system.pkl"
        db = tmp_path / "candidates.db"
        save_system(trained, pkl)
        loaded = load_system(pkl, store_path=db)
        loaded.create_session("u", john_profile())
        count = loaded.store.candidate_count("u")
        # reopen from disk: the candidates survived
        again = load_system(pkl, store_path=db)
        assert again.store.candidate_count("u") == count

    def test_version_check(self, trained, tmp_path):
        import pickle

        path = tmp_path / "bad.pkl"
        with path.open("wb") as handle:
            pickle.dump({"version": 99}, handle)
        with pytest.raises(StorageError, match="version"):
            load_system(path)


class TestAdminCli:
    def test_admin_then_load(self, tmp_path, capsys):
        from repro.app.cli import main

        pkl = tmp_path / "sys.pkl"
        code = main(
            ["--n-per-year", "60", "--horizon", "1", "admin",
             "--save", str(pkl)]
        )
        assert code == 0
        assert pkl.exists()
        assert "trained 2 future models" in capsys.readouterr().out
        code = main(["--load", str(pkl), "quickstart"])
        assert code == 0
        assert "Plans and Insights" in capsys.readouterr().out


class TestRemovedKnobCompatibility:
    """Saved states predating the single search engine still carry the
    ``engine`` / ``n_jobs`` config fields; they load and refresh to the
    same store contents as a state saved without them."""

    def _refreshed_digest(self, schema, tmp_path, name, legacy):
        config = AdminConfig(
            T=2, strategy="last", k=3, max_iter=6, random_state=0,
            warm_start=False,
        )
        if legacy:
            # the pickled shape of a pre-removal AdminConfig
            config.engine = "fused"
            config.n_jobs = 3
        system = JustInTime(
            schema, lending_update_function(schema), config,
            store_path=tmp_path / f"{name}.db",
        )
        system.fit(make_lending_dataset(n_per_year=60, random_state=5))
        system.create_sessions([("u0", john_profile()), ("u1", john_profile())])
        pkl = tmp_path / f"{name}.pkl"
        save_system(system, pkl)
        system.store.close()
        loaded = load_system(pkl, store_path=tmp_path / f"{name}.db")
        assert getattr(loaded.config, "engine", None) == (
            "fused" if legacy else None
        )
        loaded.resume_sessions()
        report = loaded.refresh(make_lending_dataset(n_per_year=20, random_state=9))
        assert report.cells_recomputed > 0
        digest = loaded.store.contents_digest()
        loaded.store.close()
        return digest

    def test_legacy_config_loads_and_refreshes_to_same_digest(
        self, schema, tmp_path
    ):
        assert self._refreshed_digest(
            schema, tmp_path, "legacy", legacy=True
        ) == self._refreshed_digest(schema, tmp_path, "current", legacy=False)
