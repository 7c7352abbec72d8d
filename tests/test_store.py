"""State database: hashing retrieval, round trips, fingerprint guard."""

import json

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

    def test_rejects_format_version_1(self, model, tmp_path):
        # Version 1 entry blobs held an extra log_decay field per layer; reading
        # one with the version 2 layout would misplace every later field.
        _, params = model
        store = StateStore.create(params)
        store.insert(TokenSequence(np.arange(12)), params)
        path = tmp_path / "db.ssdb"
        store.save(str(path))
        current = f'"format_version":{FORMAT_VERSION}'.encode()
        data = path.read_bytes()
        assert FORMAT_VERSION == 2 and data.count(current) == 1
        path.write_bytes(data.replace(current, b'"format_version":1'))
        with pytest.raises(InvalidInputError, match="version 1"):
            StateStore.open(str(path))

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
