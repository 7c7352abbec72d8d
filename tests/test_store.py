"""State database: hashing retrieval, round trips, fingerprint guard."""

import json
import os

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssmcompose import (
    ConfigMismatchError,
    InvalidInputError,
    NotFoundError,
    TokenSequence,
    ToyModelConfig,
    ToyModelParams,
    compose_picaso_r,
    init_params,
)
from ssmcompose.store import (
    EMBED_DIM,
    FORMAT_VERSION,
    StateStore,
    embed_text,
    load_composed_state,
    save_composed_state,
)


def full_sort(store, query_tokens, k):
    """Reference: score every entry with its own `np.dot`, sort all N, keep k."""
    q = embed_text(query_tokens).v
    scored = [
        (cid, float(np.dot(q, embed_text(store.entry(cid).tokens).v))) for cid in store.ids()
    ]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:k]


def _manifest(data):
    offset = int.from_bytes(data[-20:-12], "little")
    length = int.from_bytes(data[-12:-4], "little")
    return json.loads(data[offset : offset + length]), offset


@pytest.fixture()
def model():
    cfg = ToyModelConfig(embed_dim=4, state_dim=6, num_layers=2, conv_width=3)
    return cfg, init_params(cfg, seed=21)


class TestEmbedText:
    def test_deterministic(self):
        a = embed_text(TokenSequence.from_text("the cat sat"))
        b = embed_text(TokenSequence.from_text("the cat sat"))
        npt.assert_array_equal(a.v, b.v)

    def test_empty_is_degenerate_zero(self):
        e = embed_text(TokenSequence(np.zeros(0, dtype=np.int64)))
        assert e.degenerate
        npt.assert_array_equal(e.v, np.zeros(EMBED_DIM))

    def test_self_cosine_is_one(self):
        e = embed_text(TokenSequence.from_text("some longer piece of text"))
        assert float(np.dot(e.v, e.v)) == pytest.approx(1.0, abs=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=3, max_size=64))
    def test_normalized(self, data):
        e = embed_text(TokenSequence.from_bytes(data))
        assert float(np.linalg.norm(e.v)) == pytest.approx(1.0, abs=1e-6)


class TestInsert:
    def test_idempotent(self, model):
        _, params = model
        store = StateStore.create(params)
        seq = TokenSequence.from_text("a fact about things")
        cid1 = store.insert(seq, params)
        cid2 = store.insert(seq, params)
        assert cid1 == cid2
        assert len(store) == 1

    def test_fingerprint_guard(self, model):
        cfg, params = model
        store = StateStore.create(params)
        other = init_params(cfg, seed=99)
        with pytest.raises(ConfigMismatchError):
            store.insert(TokenSequence.from_text("x y z"), other)
        store.insert(TokenSequence.from_text("x y z"), params)
        with pytest.raises(ConfigMismatchError):
            store.insert(TokenSequence.from_text("u v w"), other)
        assert len(store) == 1

    def test_fingerprint_hashed_once_per_params_object(self, model, monkeypatch):
        _, params = model
        store = StateStore.create(params)
        calls = []
        checksum = ToyModelParams.checksum
        monkeypatch.setattr(
            ToyModelParams, "checksum", lambda self: calls.append(self) or checksum(self)
        )
        for i in range(5):
            store.insert(TokenSequence(np.arange(8) + i), params)
        assert calls == [params]
        twin = params.with_tensors({})  # same fingerprint, another object
        store.insert(TokenSequence(np.arange(8) + 9), twin)
        assert calls == [params, twin] and len(store) == 6

    def test_unknown_id(self, model):
        _, params = model
        store = StateStore.create(params)
        with pytest.raises(NotFoundError, match="nope"):
            store.load_states(["nope"])


class TestQuery:
    def test_exact_text_ranks_first(self, model):
        _, params = model
        store = StateStore.create(params)
        texts = ["the red door opens", "a blue boat floats", "green hills roll far"]
        ids = [store.insert(TokenSequence.from_text(t), params) for t in texts]
        hits = store.query(TokenSequence.from_text(texts[1]), k=3)
        assert hits[0][0] == ids[1]
        assert hits[0][1] == pytest.approx(1.0, abs=1e-6)

    def test_k_clamped_to_store_size(self, model):
        _, params = model
        store = StateStore.create(params)
        store.insert(TokenSequence.from_text("only entry"), params)
        assert len(store.query(TokenSequence.from_text("anything"), k=10)) == 1

    def test_empty_store(self, model):
        _, params = model
        store = StateStore.create(params)
        assert store.query(TokenSequence.from_text("anything"), k=2) == []

    def test_ties_break_by_id(self, model):
        # Two entries embedding identically (same 3-gram bag) share a score;
        # the smaller id must come first.
        _, params = model
        store = StateStore.create(params)
        a = store.insert(TokenSequence.from_text("ababab"), params)
        b = store.insert(TokenSequence.from_text("bababa"), params)
        hits = store.query(TokenSequence.from_text("ababab"), k=2)
        assert hits[0][1] == pytest.approx(hits[1][1], abs=1e-12)
        assert [h[0] for h in hits] == sorted([a, b])


class TestQueryMatchesFullSort:
    """`query` returns exactly the (id, score) list of the full per-entry sort."""

    @staticmethod
    def _random_store(params, seed, n):
        # A 3-letter alphabet makes 3-gram bags repeat (exact score ties), and
        # each word is also stored as a rotation with the same bag.
        rng = np.random.default_rng(seed)
        store = StateStore.create(params)
        while len(store) < n:
            word = rng.integers(0, 3, int(rng.integers(1, 9)))
            store.insert(TokenSequence(word), params)
            if word.size >= 3 and word[0] == word[-2]:
                store.insert(TokenSequence(np.roll(word, -1)), params)
        return store

    @staticmethod
    def _queries(seed):
        rng = np.random.default_rng(seed + 100)
        return [TokenSequence(rng.integers(0, 3, length)) for length in (0, 1, 2, 3, 4, 6, 9, 9)]

    def _check(self, store, queries):
        n = len(store)
        for q in queries:
            for k in sorted({1, 3, max(n - 1, 1), max(n, 1), n + 5}):
                assert store.query(q, k) == full_sort(store, q, k)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_stores(self, model, seed):
        _, params = model
        store = self._random_store(params, seed, 40)
        ties = [
            hits
            for q in self._queries(seed)
            for hits in [store.query(q, len(store))]
            if len({score for _, score in hits}) < len(hits)
        ]
        assert ties  # the stores do exercise the id tie-break
        self._check(store, self._queries(seed))

    def test_empty_store(self, model):
        _, params = model
        self._check(StateStore.create(params), self._queries(0))

    def test_insert_after_query(self, model):
        _, params = model
        store = self._random_store(params, 3, 20)
        self._check(store, self._queries(3))
        rng = np.random.default_rng(4)
        for _ in range(100):  # grows the matrix past its first capacity
            store.insert(TokenSequence(rng.integers(0, 4, int(rng.integers(1, 12)))), params)
        self._check(store, self._queries(3))

    def test_after_save_and_open(self, model, tmp_path):
        _, params = model
        store = self._random_store(params, 5, 60)
        path = str(tmp_path / "db.ssdb")
        store.save(path)
        loaded = StateStore.open(path)
        assert loaded.ids() == store.ids()
        for q in self._queries(5):
            for k in (1, 7, len(store) + 5):
                assert loaded.query(q, k) == store.query(q, k) == full_sort(store, q, k)

    def test_open_rebuilds_the_insert_time_vectors(self, model, tmp_path):
        _, params = model
        store = self._random_store(params, 6, 30)
        inserted = np.stack([embed_text(store.entry(cid).tokens).v for cid in store.ids()])
        path = tmp_path / "db.ssdb"
        store.save(str(path))
        loaded = StateStore.open(str(path))
        assert loaded._matrix[: len(loaded)].tobytes() == inserted.tobytes()
        assert store._matrix[: len(store)].tobytes() == inserted.tobytes()
        manifest, _ = _manifest(path.read_bytes())
        assert all(
            set(row) == {"id", "offset", "length", "token_count"} for row in manifest["entries"]
        )


class TestSerialization:
    def test_round_trip_bit_exact(self, model, tmp_path):
        _, params = model
        store = StateStore.create(params)
        rng = np.random.default_rng(3)
        ids = [
            store.insert(TokenSequence(rng.integers(0, 256, rng.integers(1, 40))), params)
            for _ in range(25)
        ]
        path = str(tmp_path / "db.ssdb")
        store.save(path)
        loaded = StateStore.open(path)
        assert loaded.fingerprint == store.fingerprint
        for cid in ids:
            a, b = store.entry(cid), loaded.entry(cid)
            npt.assert_array_equal(a.tokens.tokens, b.tokens.tokens)
            for layer in range(a.state.num_layers):
                for field in ("x_seg", "decay", "conv_tail"):
                    av = getattr(a.state, field)[layer]
                    bv = getattr(b.state, field)[layer]
                    assert av.tobytes() == bv.tobytes()

    def test_retrieval_deterministic_across_reopens(self, model, tmp_path):
        _, params = model
        store = StateStore.create(params)
        rng = np.random.default_rng(4)
        for _ in range(10):
            store.insert(TokenSequence(rng.integers(0, 256, 12)), params)
        path = str(tmp_path / "db.ssdb")
        store.save(path)
        q = TokenSequence(rng.integers(0, 256, 9))
        runs = [json.dumps(StateStore.open(path).query(q, k=5)) for _ in range(2)]
        assert runs[0] == runs[1]

    def test_rejects_older_format_versions(self, model, tmp_path):
        # Version 1 entry blobs held an extra log_decay field per layer, and
        # version 2 manifests stored every embedding; neither layout is read.
        # A .ssbl file carries the store's version number, so it follows too.
        cfg, params = model
        store = StateStore.create(params)
        ids = [store.insert(TokenSequence(np.arange(12) + i), params) for i in range(2)]
        db, ssbl = tmp_path / "db.ssdb", tmp_path / "c.ssbl"
        store.save(str(db))
        save_composed_state(str(ssbl), compose_picaso_r(store.load_states(ids)), cfg)
        current = f'"format_version":{FORMAT_VERSION}'.encode()
        assert FORMAT_VERSION == 3
        for path, load in ((db, StateStore.open), (ssbl, load_composed_state)):
            data = path.read_bytes()
            assert data.count(current) == 1
            load(str(path))
            for old in (1, 2):
                path.write_bytes(data.replace(current, f'"format_version":{old}'.encode()))
                with pytest.raises(InvalidInputError, match=f"version {old}"):
                    load(str(path))

    def test_rejects_garbage_file(self, tmp_path):
        path = tmp_path / "junk.ssdb"
        path.write_bytes(b"not a store at all")
        with pytest.raises(InvalidInputError):
            StateStore.open(str(path))

    @pytest.mark.parametrize("damage", ["middle_cut_out", "flipped_manifest_byte", "missing_key"])
    def test_rejects_damaged_manifest(self, model, tmp_path, damage):
        _, params = model
        store = StateStore.create(params)
        for i in range(3):
            store.insert(TokenSequence(np.arange(12) + i), params)
        path = tmp_path / "db.ssdb"
        store.save(str(path))
        data = path.read_bytes()
        at = data.index(b'"entries"')
        damaged = {
            "middle_cut_out": data[: len(data) // 3] + data[2 * len(data) // 3 :],
            "flipped_manifest_byte": data[:at] + bytes([data[at] ^ 0x80]) + data[at + 1 :],
            "missing_key": data.replace(b'"fingerprint"', b'"fingerprinT"'),
        }[damage]
        path.write_bytes(damaged)
        with pytest.raises(InvalidInputError, match="damaged store manifest"):
            StateStore.open(str(path))

    def test_rejects_duplicated_id(self, model, tmp_path):
        _, params = model
        store = StateStore.create(params)
        for i in range(3):
            store.insert(TokenSequence(np.arange(12) + i), params)
        path = tmp_path / "db.ssdb"
        store.save(str(path))
        data = path.read_bytes()
        manifest, offset = _manifest(data)
        manifest["entries"].append(manifest["entries"][0])
        body = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
        footer = offset.to_bytes(8, "little") + len(body).to_bytes(8, "little") + b"SSDB"
        path.write_bytes(data[:offset] + body + footer)
        with pytest.raises(InvalidInputError, match="listed twice"):
            StateStore.open(str(path))

    def test_save_syncs_the_temp_file_before_replacing(self, model, tmp_path, monkeypatch):
        _, params = model
        store = StateStore.create(params)
        store.insert(TokenSequence(np.arange(12)), params)
        events = []
        fsync, replace = os.fsync, os.replace

        def traced_fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            fsync(fd)

        def traced_replace(src, dst):
            events.append(("replace", os.stat(src).st_ino))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", traced_fsync)
        monkeypatch.setattr(os, "replace", traced_replace)
        path = tmp_path / "db.ssdb"
        store.save(str(path))
        inode = path.stat().st_ino
        assert events == [("fsync", inode), ("replace", inode)]

    def test_stale_lock_is_a_typed_error(self, model, tmp_path):
        _, params = model
        store = StateStore.create(params)
        store.insert(TokenSequence(np.arange(12)), params)
        path = tmp_path / "db.ssdb"
        lock = tmp_path / "db.ssdb.lock"
        lock.write_bytes(b"held")
        with pytest.raises(InvalidInputError, match="db.ssdb.lock"):
            store.save(str(path))
        assert lock.read_bytes() == b"held"
        assert not path.exists()


class TestComposedStateFile:
    def _saved(self, model, tmp_path):
        cfg, params = model
        store = StateStore.create(params)
        ids = [store.insert(TokenSequence(np.arange(12) + i), params) for i in range(3)]
        composed = compose_picaso_r(store.load_states(ids))
        path = tmp_path / "c.ssbl"
        save_composed_state(str(path), composed, cfg)
        return path, composed

    def test_round_trip_bit_exact(self, model, tmp_path):
        path, composed = self._saved(model, tmp_path)
        loaded = load_composed_state(str(path))
        assert (loaded.method, loaded.provenance) == (composed.method, composed.provenance)
        for a, b in zip(composed.x + composed.conv_tail, loaded.x + loaded.conv_tail):
            assert a.tobytes() == b.tobytes()

    @staticmethod
    def _with_header(data, edit):
        """The same file with its JSON header edited and its length field kept right."""
        length = int.from_bytes(data[4:12], "little")
        header = json.loads(data[12 : 12 + length])
        edit(header)
        new = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        return data[:4] + len(new).to_bytes(8, "little") + new + data[12 + length :]

    @pytest.mark.parametrize(
        "damage", ["missing_file", "cut_10_bytes", "garbage_header", "version_99", "missing_key"]
    )
    def test_rejects_damaged_file(self, model, tmp_path, damage):
        path, _ = self._saved(model, tmp_path)
        data = path.read_bytes()
        damaged = {
            "missing_file": None,
            "cut_10_bytes": data[:-10],
            "garbage_header": data[:12] + bytes([0xFF]) * 20 + data[32:],
            "version_99": self._with_header(data, lambda h: h.update(format_version=99)),
            "missing_key": self._with_header(data, lambda h: h.pop("method")),
        }[damage]
        if damaged is None:
            path.unlink()
        else:
            path.write_bytes(damaged)
        with pytest.raises(InvalidInputError):
            load_composed_state(str(path))
