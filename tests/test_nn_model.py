"""Classifier construction, parameter/FLOP accounting, and weights files."""

import struct

import numpy as np
import pytest

from otfs_sync.nn import (
    WeightsFormatError,
    build_sync_model,
    count_flops,
    count_params,
    flops_report,
    head_classes,
    load_model,
    param_count,
    save_model,
    save_tensors,
    softmax_cross_entropy,
    two_stage_flops,
)
from otfs_sync.nn.io import read_into, read_table
from otfs_sync.nn.model import HEAD_CODES, TRUNK, trunk_tile


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def _read_tensors(path):
    """Every tensor of a weights file, by name, read through its table."""
    with open(path, "rb") as fh:
        table = read_table(fh, str(path))
        out = {name: np.empty(e.shape, np.float32) for name, e in table.items()}
        for name, e in table.items():
            read_into(fh, str(path), e, out[name])
    return out


def test_every_exported_name_resolves():
    import otfs_sync.nn

    for name in otfs_sync.nn.__all__:
        getattr(otfs_sync.nn, name)


class TestArchitecture:
    def test_trunk_widths(self):
        assert TRUNK == (("rb1", 2, 4), ("rb2", 4, 16), ("rb3", 16, 16))

    def test_head_classes(self):
        assert head_classes("coarse", 256, 64) == 64
        assert head_classes("fine", 256, 64) == 256
        assert head_classes("onestage", 256, 64) == 16384
        with pytest.raises(ValueError):
            head_classes("jumbo", 256, 64)

    def test_rejects_indivisible_grid(self):
        with pytest.raises(ValueError):
            build_sync_model(2, 2, "coarse")

    def test_forward_shapes(self):
        model = build_sync_model(32, 8, "coarse", seed=1)
        y = model.forward(np.zeros((3, 2, 256), dtype=np.float32))
        assert y.shape == (3, 8)

    def test_deterministic_init(self):
        a = build_sync_model(32, 8, "fine", seed=7)
        b = build_sync_model(32, 8, "fine", seed=7)
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb and np.array_equal(pa.value, pb.value)
        c = build_sync_model(32, 8, "fine", seed=8)
        assert not np.array_equal(a.net.children[0][1].main.children[0][1].weight.value,
                                  c.net.children[0][1].main.children[0][1].weight.value)

    def test_predict_classes_batched(self):
        model = build_sync_model(8, 4, "coarse", seed=2)
        X = _rng(3).standard_normal((10, 2, 32)).astype(np.float32)
        assert np.array_equal(model.predict_classes(X, batch_size=3),
                              model.predict_classes(X, batch_size=10))


class TestParameterCounts:
    def test_two_stage_pair_at_full_scale(self):
        pair = param_count(256, 64, "coarse") + param_count(256, 64, "fine")
        assert pair == 10_500_032
        assert abs(pair - 10_500_000) <= 10_000  # 10.50M within 0.01M

    def test_coarse_head_linear_share(self):
        # fc of the coarse head: 64 * (16 * 16384 / 8) weights + 64 biases
        feat = 16 * (256 * 64 // 8)
        assert 64 * feat + 64 == 2_097_216
        trunk_only = param_count(256, 64, "coarse") - (64 * feat + 64)
        assert trunk_only == param_count(8, 1, "coarse") - (1 * 16 + 1)

    def test_one_stage_dwarfs_the_pair(self):
        one = param_count(256, 64, "onestage")
        assert one == 536_894_272
        assert one > param_count(256, 64, "coarse") + param_count(256, 64, "fine")

    @pytest.mark.parametrize("head", ["coarse", "fine", "onestage"])
    @pytest.mark.parametrize("M,N", [(32, 8), (8, 4), (16, 16)])
    def test_analytic_matches_instantiated(self, head, M, N):
        model = build_sync_model(M, N, head)
        assert param_count(M, N, head) == count_params(model)

    def test_running_stats_not_counted(self):
        model = build_sync_model(32, 8, "coarse")
        n_buffers = sum(b.size for _, b in model.named_buffers())
        assert n_buffers > 0
        assert count_params(model) == sum(p.size for p in model.parameters())


class TestFlops:
    def test_two_stage_budget_at_full_scale(self):
        total = two_stage_flops(256, 64)
        assert total == count_flops(256, 64, "coarse") + count_flops(256, 64, "fine")
        assert 175_000_000 <= total <= 215_000_000

    def test_mac_component_at_full_scale(self):
        pair_macs = flops_report(256, 64, "coarse").macs + flops_report(256, 64, "fine").macs
        assert 2 * pair_macs == 180_355_072

    def test_report_totals_are_row_sums(self):
        rep = flops_report(32, 8, "fine")
        assert rep.total == sum(r.flops for r in rep.rows)
        assert rep.macs == sum(r.macs for r in rep.rows)
        assert rep.total == 2 * rep.macs + rep.elementwise

    def test_report_itemizes_every_stage(self):
        names = [r.name for r in flops_report(32, 8, "coarse").rows]
        for expected in ("rb1.conv7", "rb1.bn7", "rb2.shortcut.conv1", "pool3", "fc"):
            assert expected in names, f"missing row {expected}"

    def test_conv_rows_follow_table(self):
        rep = flops_report(32, 8, "coarse")
        by_name = {r.name: r for r in rep.rows}
        MN = 256
        assert by_name["rb1.conv7"].macs == MN * 4 * 2 * 7
        assert by_name["rb2.conv5"].macs == (MN // 2) * 16 * 16 * 5
        assert by_name["fc"].macs == 16 * (MN // 8) * 8

    def test_lines_render(self):
        rep = flops_report(32, 8, "coarse")
        lines = rep.lines()
        assert len(lines) == len(rep.rows) + 2
        assert lines[-1].startswith("total")


class TestWeightsFile:
    def test_round_trip_is_exact(self, tmp_path):
        model = build_sync_model(32, 8, "coarse", seed=4)
        # make running stats non-trivial so buffer round-tripping is visible
        model.train()
        model.forward(_rng(5).standard_normal((4, 2, 256)).astype(np.float32))
        path = tmp_path / "m.otfsnn"
        save_model(str(path), model, {"lr": 1e-4})
        loaded, meta = load_model(str(path))
        assert meta["M"] == 32 and meta["N"] == 8
        assert meta["head_code"] == HEAD_CODES["coarse"]
        assert meta["lr"] == pytest.approx(1e-4)
        want = model.state_dict()
        got = loaded.state_dict()
        assert sorted(want) == sorted(got)
        for k in want:
            assert np.array_equal(want[k], got[k]), k

    @pytest.mark.parametrize("head", ["coarse", "fine", "onestage"])
    def test_load_draws_no_initial_weights(self, tmp_path, monkeypatch, head):
        # every tensor comes from the file, so loading builds no generator
        model = build_sync_model(16, 4, head, seed=9)
        path = tmp_path / "w.otfsnn"
        save_model(str(path), model)

        def no_generator(*args, **kwargs):
            raise AssertionError("load_model drew initial weights")

        monkeypatch.setattr(np.random, "Generator", no_generator)
        loaded, _ = load_model(str(path))
        want, got = model.state_dict(), loaded.state_dict()
        assert sorted(want) == sorted(got)
        for k in want:
            assert got[k].dtype == want[k].dtype and np.array_equal(want[k], got[k]), k

    def test_loaded_model_allocates_no_gradient(self, tmp_path):
        # gradients are allocated on first use, so loading and inference
        # peak at the file's bytes plus the net's parameters and buffers
        import tracemalloc

        path = tmp_path / "w.otfsnn"
        save_model(str(path), build_sync_model(128, 32, "fine", seed=3))
        size = path.stat().st_size
        tracemalloc.start()
        try:
            loaded, _ = load_model(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * size, (peak, size)
        loaded.predict_classes(_rng(6).standard_normal((3, 2, 128 * 32)).astype(np.float32))
        assert [name for name, p in loaded.net.named_parameters()
                if p._grad is not None] == []

    def test_load_rejects_a_missing_buffer(self, tmp_path):
        tensors = dict(build_sync_model(16, 4, "coarse").state_dict())
        del tensors["rb1.main.bn7.running_var"]
        tensors.update({"meta.M": np.float32(16), "meta.N": np.float32(4),
                        "meta.head_code": np.float32(HEAD_CODES["coarse"])})
        path = tmp_path / "nobuf.otfsnn"
        save_tensors(str(path), tensors)
        with pytest.raises(WeightsFormatError, match="running_var"):
            load_model(str(path))

    def test_load_rejects_a_buffer_of_the_wrong_shape(self, tmp_path):
        # one running variance for four channels must not broadcast
        tensors = dict(build_sync_model(16, 4, "coarse").state_dict())
        tensors["rb1.main.bn7.running_var"] = np.array([7.0], dtype=np.float32)
        tensors.update({"meta.M": np.float32(16), "meta.N": np.float32(4),
                        "meta.head_code": np.float32(HEAD_CODES["coarse"])})
        path = tmp_path / "buf.otfsnn"
        save_tensors(str(path), tensors)
        with pytest.raises(WeightsFormatError,
                           match=r"buffer 'rb1.main.bn7.running_var' has shape \(1,\)"):
            load_model(str(path))

    def test_saved_bytes_of_a_seeded_model(self, tmp_path):
        # pins the OTFSNN01 bytes of seeded toy models: initial draws, tensor
        # order and float32 encoding of parameters, buffers and metadata
        import hashlib

        want = {
            "coarse": "2e489718fe626de6ae3d14b50c0abc5da27c6cf06037a9de035bad20581f086d",
            "fine": "e607388ec5e539988003b652da25faaea221fd78f724e19ebb9784d8b3098745",
        }
        for head, digest in want.items():
            path = tmp_path / f"{head}.otfsnn"
            save_model(str(path), build_sync_model(32, 8, head, seed=7),
                       {"lr": 5e-3, "seed": 7.0})
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, head

    def test_load_peak_is_three_file_sizes(self, tmp_path):
        # the file's bytes once and the net's parameters and buffers, with
        # room to spare: nothing is copied out of the file buffer before
        # load_state, and no gradient is allocated
        import tracemalloc

        path = tmp_path / "peak.otfsnn"
        save_model(str(path), build_sync_model(128, 32, "fine", seed=3))
        size = path.stat().st_size
        tracemalloc.start()
        try:
            loaded, _ = load_model(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.1 * size, (peak, size)
        del loaded

    def test_load_peak_is_one_file_size(self, tmp_path):
        # the table and meta.* scalars are read first, then each tensor goes
        # straight from the file into the zero net built for it
        import tracemalloc

        path = tmp_path / "one.otfsnn"
        save_model(str(path), build_sync_model(128, 32, "fine", seed=3))
        size = path.stat().st_size
        tracemalloc.start()
        try:
            loaded, _ = load_model(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * size + (1 << 20), (peak, size)
        del loaded

    def test_build_peak_is_one_copy_of_the_parameters(self):
        # initial weights are drawn in float64 blocks written straight into
        # the float32 parameters, not drawn whole and cast
        import tracemalloc

        params = 4 * param_count(256, 64, "fine")
        tracemalloc.start()
        try:
            model = build_sync_model(256, 64, "fine", seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * params + (2 << 20), (peak, params)
        del model

    @pytest.mark.parametrize("block_bytes", [1 << 20, 8 * 1000])
    def test_blocked_draws_are_bitwise_one_draw_per_layer(self, monkeypatch, block_bytes):
        # reference: each conv and fc weight drawn whole as float64 from one
        # generator in trunk order, scaled by sqrt(2 / fan_in) and cast; the
        # 256x64 fc weight (256 x 32768) spans 64 blocks of 1 MiB, and blocks
        # of 1000 draws end inside rows
        from otfs_sync.nn import layers

        monkeypatch.setattr(layers, "INIT_BLOCK_BYTES", block_bytes)
        model = build_sync_model(256, 64, "fine", seed=5)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5)))
        for name, p in model.named_parameters():
            if name.endswith("weight"):
                w = rng.standard_normal(p.shape)
                w *= np.sqrt(2.0 / np.prod(p.shape[1:]))
                assert p.value.dtype == np.float32, name
                assert np.array_equal(p.value, w.astype(np.float32)), name
            elif name.endswith("gamma"):
                assert np.all(p.value == 1), name
            else:
                assert np.all(p.value == 0), name

    def test_save_writes_non_contiguous_and_float64_tensors(self, tmp_path):
        a = np.arange(12, dtype=np.float64).reshape(3, 4)
        path = tmp_path / "t.otfsnn"
        save_tensors(str(path), {"t": a.T, "s": np.float64(1.5)})
        with open(path, "rb") as fh:
            table = read_table(fh, str(path))
        raw = path.read_bytes()
        t, s = table["t"], table["s"]
        assert t.shape == (4, 3)
        assert raw[t.offset:t.offset + 48] == a.T.astype("<f4").tobytes()
        assert s.shape == () and raw[s.offset:s.offset + 4] == np.array(1.5, "<f4").tobytes()

    def test_truncation_and_trailing_messages(self, tmp_path):
        path = tmp_path / "m.otfsnn"
        save_tensors(str(path), {"w": np.ones(8, dtype=np.float32)})
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(WeightsFormatError, match="truncated tensor table"):
            _read_tensors(path)
        path.write_bytes(raw + b"\x00\x01")
        with pytest.raises(WeightsFormatError, match="2 trailing bytes after the tensor table"):
            _read_tensors(path)
        path.write_bytes(b"NOPE" + raw[4:])
        with pytest.raises(WeightsFormatError, match=r"bad magic b'NOPENN01'"):
            _read_tensors(path)
        path.write_bytes(raw[:10])
        with pytest.raises(WeightsFormatError, match="shorter than the weights header"):
            _read_tensors(path)

    def test_predictions_survive_round_trip(self, tmp_path):
        model = build_sync_model(16, 8, "fine", seed=6)
        X = _rng(7).standard_normal((12, 2, 128)).astype(np.float32)
        path = tmp_path / "f.otfsnn"
        save_model(str(path), model)
        loaded, _ = load_model(str(path))
        assert np.array_equal(model.predict_classes(X), loaded.predict_classes(X))

    def test_tensor_container_layout(self, tmp_path):
        path = tmp_path / "t.otfsnn"
        save_tensors(str(path), {"a": np.arange(6, dtype=np.float32).reshape(2, 3)})
        raw = path.read_bytes()
        assert raw[:8] == b"OTFSNN01"
        (count,) = struct.unpack_from("<I", raw, 8)
        assert count == 1
        (name_len,) = struct.unpack_from("<H", raw, 12)
        assert raw[14:14 + name_len] == b"a"
        rank = raw[14 + name_len]
        assert rank == 2
        dims = struct.unpack_from("<2I", raw, 15 + name_len)
        assert dims == (2, 3)

    def test_round_trip_arbitrary_tensors(self, tmp_path):
        tensors = {
            "deep.name.with.dots": _rng(8).standard_normal((3, 4, 5)).astype(np.float32),
            "scalar": np.float32(2.5),
            "vec": np.zeros(7, dtype=np.float32),
        }
        path = tmp_path / "r.otfsnn"
        save_tensors(str(path), tensors)
        out = _read_tensors(path)
        assert sorted(out) == sorted(tensors)
        for k in tensors:
            assert np.array_equal(np.asarray(tensors[k]), out[k])

    def test_load_model_requires_grid_metadata(self, tmp_path):
        path = tmp_path / "nometa.otfsnn"
        save_tensors(str(path), {"w": np.ones(2, dtype=np.float32)})
        with pytest.raises(WeightsFormatError):
            load_model(str(path))

    def test_load_model_rejects_tensors_that_do_not_fit_the_metadata(self, tmp_path):
        # one-stage 16x4 tensors stored under meta.M=8, meta.N=4
        state = build_sync_model(16, 4, "onestage").state_dict()
        meta = {"meta.M": np.float32(8), "meta.N": np.float32(4),
                "meta.head_code": np.float32(HEAD_CODES["onestage"])}
        shape = tmp_path / "shape.otfsnn"
        save_tensors(str(shape), {**state, **meta})
        with pytest.raises(WeightsFormatError, match="shape.otfsnn: tensor 'fc.weight'"):
            load_model(str(shape))
        missing = tmp_path / "missing.otfsnn"
        small = build_sync_model(8, 4, "onestage").state_dict()
        del small["fc.bias"]
        save_tensors(str(missing), {**small, **meta})
        with pytest.raises(WeightsFormatError, match="missing.otfsnn: .*'fc.bias'"):
            load_model(str(missing))

    def test_load_state_shape_mismatch(self, tmp_path):
        small = build_sync_model(8, 4, "coarse")
        big = build_sync_model(16, 4, "coarse")
        with pytest.raises(ValueError):
            big.load_state(small.state_dict())


class TestTrainingBackward:
    """Training asks ``SyncModel.backward`` for parameter gradients only."""

    def test_parameter_gradients_do_not_depend_on_the_input_gradient(self, monkeypatch):
        from otfs_sync.nn import layers

        calls = []
        for fn in ("_input_grad_shifted", "_input_grad_transposed"):
            original = getattr(layers, fn)

            def counting(w, gy, original=original):
                calls.append(w.shape)
                return original(w, gy)

            monkeypatch.setattr(layers, fn, counting)
        model = build_sync_model(32, 8, "coarse", seed=2)
        model.train()
        X = _rng(3).standard_normal((16, 2, 256)).astype(np.float32)
        y = _rng(4).integers(0, 8, 16)

        def step(input_grad):
            calls.clear()
            for p in model.parameters():
                p.grad = np.zeros_like(p.value)
            _, g = softmax_cross_entropy(model.forward(X), y)
            gx = model.backward(g, input_grad=input_grad)
            return gx, {n: p.grad.copy() for n, p in model.named_parameters()}, list(calls)

        gx, want, with_input = step(True)
        none, got, without_input = step(False)
        assert gx.shape == X.shape and none is None
        assert sorted(want) == sorted(got)
        for name in want:
            assert np.array_equal(want[name], got[name]), name
        # rb1's conv7 (2 -> 4) and its shortcut conv1 are the convs that see
        # the network's input
        skipped = list(with_input)
        for shape in without_input:
            skipped.remove(shape)
        assert sorted(skipped) == [(4, 2, 1), (4, 2, 7)]


def _trained_looking_model(head, M, N, dtype, seed):
    """A model whose batch norms hold non-trivial running statistics and
    affine parameters, so folding them into the convs is visible."""
    model = build_sync_model(M, N, head, seed=seed, dtype=dtype)
    rng = _rng(seed + 100)
    for name, p in model.named_parameters():
        if name.endswith("gamma"):
            p.value[:] = rng.uniform(0.5, 1.5, p.shape)
        elif name.endswith("beta") or (name.endswith("bias") and "conv" in name):
            p.value[:] = 0.3 * rng.standard_normal(p.shape)
    for name, buf in model.named_buffers():
        if name.endswith("running_var"):
            buf[:] = rng.uniform(0.5, 2.0, buf.shape)
        else:
            buf[:] = 0.3 * rng.standard_normal(buf.shape)
    return model


class TestInferenceForward:
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("head", ["coarse", "fine"])
    def test_matches_eval_mode_forward(self, dtype, tol, head):
        model = _trained_looking_model(head, 32, 8, dtype, seed=11)
        X = _rng(12).standard_normal((24, 2, 256)).astype(dtype)
        model.eval()
        want = model.forward(X)
        got = model.net.forward(X, cache=False)
        assert got.dtype == want.dtype
        assert np.max(np.abs(got - want)) <= tol * float(np.max(np.abs(want)))
        assert np.array_equal(model.predict_classes(X, batch_size=5), np.argmax(want, axis=1))

    def test_predict_classes_leaves_model_untouched(self):
        model = _trained_looking_model("coarse", 32, 8, np.float32, seed=13)
        X = _rng(14).standard_normal((6, 2, 256)).astype(np.float32)
        X_before = X.copy()
        state = {k: v.copy() for k, v in model.state_dict().items()}
        model.predict_classes(X)
        assert np.array_equal(X, X_before)
        for k, v in model.state_dict().items():
            assert np.array_equal(v, state[k]), k

    def test_no_cached_arrays_after_train_step_or_prediction(self, cached_arrays):
        from otfs_sync.nn import softmax_cross_entropy

        model = build_sync_model(32, 8, "coarse", seed=15)
        X = _rng(16).standard_normal((8, 2, 256)).astype(np.float32)
        model.train()
        logits = model.forward(X)
        assert cached_arrays(model.net) != []
        _, glogits = softmax_cross_entropy(logits, np.arange(8) % model.classes)
        model.backward(glogits)
        assert cached_arrays(model.net) == []
        model.predict_classes(X, batch_size=3)
        assert cached_arrays(model.net) == []


def _blocks(model):
    return [layer for name, layer in model.net.children if name.startswith("rb")]


def _fresh_logits(model, X):
    """Cache-free logits of a newly built model holding ``model``'s state,
    so no fold of ``model`` can reach them."""
    fresh = build_sync_model(model.M, model.N, model.head,
                             dtype=model.net.children[-1][1].weight.value.dtype)
    fresh.load_state(model.state_dict())
    fresh.eval()
    return fresh.net.forward(X, cache=False)


class TestFoldCache:
    """Each residual block folds its batch norms once per weights state: the
    folded convs are reused while the block's flat parameter array keeps its
    bytes, and any in-place write to a parameter or running statistic makes
    the next inference fold again."""

    def _count_folds(self, monkeypatch):
        from otfs_sync.nn import layers

        calls = []
        original = layers.BatchNorm1d.eval_affine

        def counting(bn):
            calls.append(bn)
            return original(bn)

        monkeypatch.setattr(layers.BatchNorm1d, "eval_affine", counting)
        return calls

    def test_folds_once_per_weights_state(self, monkeypatch):
        model = _trained_looking_model("coarse", 32, 8, np.float32, seed=31)
        X = _rng(32).standard_normal((5, 2, 256)).astype(np.float32)
        calls = self._count_folds(monkeypatch)
        n_bns = sum(1 for name, _ in model.named_buffers() if name.endswith("running_var"))
        first = model.predict_classes(X)
        assert len(calls) == n_bns
        for _ in range(3):
            assert np.array_equal(model.predict_classes(X, batch_size=2), first)
        assert len(calls) == n_bns
        rb3 = _blocks(model)[2]
        rb3.main.children[4][1].running_mean[0] += 0.5
        model.predict_classes(X)
        assert len(calls) == n_bns + 3  # rb3 alone refolds its three batch norms

    def test_signed_zero_refolds_and_nan_reuses(self, monkeypatch):
        model = _trained_looking_model("coarse", 32, 8, np.float32, seed=33)
        X = _rng(34).standard_normal((2, 2, 256)).astype(np.float32)
        rb1 = _blocks(model)[0]
        bias = rb1.main.children[0][1].bias.value
        bias[0] = 0.0
        calls = self._count_folds(monkeypatch)
        model.predict_classes(X)
        folds = len(calls)
        bias[0] = -0.0
        model.predict_classes(X)
        assert len(calls) == folds + 4
        bias[0] = np.nan
        model.predict_classes(X)
        assert len(calls) == folds + 8
        model.predict_classes(X)
        assert len(calls) == folds + 8

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_update_reaches_the_prediction(self, dtype):
        model = _trained_looking_model("fine", 32, 8, dtype, seed=35)
        X = _rng(36).standard_normal((40, 2, 256)).astype(dtype)
        model.eval()

        def check(before):
            got = model.net.forward(X, cache=False)
            assert not np.array_equal(got, before)
            assert np.array_equal(got, _fresh_logits(model, X))
            want = model.forward(X)
            assert np.max(np.abs(got - want)) <= 1e-5 * float(np.max(np.abs(want)))
            assert np.array_equal(model.predict_classes(X), np.argmax(got, axis=1))
            return got

        logits = model.net.forward(X, cache=False)
        assert np.array_equal(logits, _fresh_logits(model, X))

        from otfs_sync.nn import AdamW

        opt = AdamW(model.parameters(), lr=1e-2)
        scores = model.forward(X)
        _, g = softmax_cross_entropy(scores, np.arange(40) % model.classes)
        model.backward(g, input_grad=False)
        opt.step()
        logits = check(logits)

        other = _trained_looking_model("fine", 32, 8, dtype, seed=37)
        model.load_state(other.state_dict())
        logits = check(logits)

        dict(model.named_buffers())["rb2.main.bn5.running_var"][3] *= 4.0
        check(logits)

    def _assert_packed(self, model):
        for i, block in enumerate(_blocks(model)):
            arrays = [p.value for _, p in block.named_parameters()]
            arrays += [b for _, b in block.named_buffers()]
            assert sum(a.size for a in arrays) == block.flat.size, i
            for a in arrays:
                assert np.shares_memory(a, block.flat), i
                assert a.dtype == block.flat.dtype, i

    def test_parameters_and_buffers_are_views_of_one_flat_array(self, tmp_path):
        model = build_sync_model(32, 8, "coarse", seed=38)
        self._assert_packed(model)
        path = tmp_path / "m.otfsnn"
        save_model(str(path), model)
        loaded, _ = load_model(str(path))
        self._assert_packed(loaded)
        for k, v in model.state_dict().items():
            assert np.array_equal(loaded.state_dict()[k], v), k

        from otfs_sync.nn import AdamW

        opt = AdamW(loaded.parameters(), lr=1e-3)
        loaded.train()
        flats = [block.flat.copy() for block in _blocks(loaded)]
        X = _rng(39).standard_normal((8, 2, 256)).astype(np.float32)
        _, g = softmax_cross_entropy(loaded.forward(X), np.arange(8) % loaded.classes)
        loaded.backward(g, input_grad=False)
        opt.step()
        self._assert_packed(loaded)
        for block, before in zip(_blocks(loaded), flats):
            assert not np.array_equal(block.flat, before)

    def test_a_cached_fold_does_not_skip_the_training_check(self):
        model = _trained_looking_model("coarse", 32, 8, np.float32, seed=40)
        X = _rng(41).standard_normal((3, 2, 256)).astype(np.float32)
        model.predict_classes(X)
        model.train()
        state = {k: v.copy() for k, v in model.state_dict().items()}
        with pytest.raises(ValueError):
            model.net.forward(X, cache=False)
        model.eval()
        rb2 = _blocks(model)[1]
        rb2.shortcut.children[1][1].set_training(True)
        with pytest.raises(ValueError):
            rb2.forward(np.zeros((1, 4, 128), dtype=np.float32), cache=False)
        for k, v in model.state_dict().items():
            assert np.array_equal(v, state[k]), k


def _predict_with_logits(monkeypatch, model, X, batch_size):
    """predict_classes(X, batch_size) plus the logits its fc calls returned."""
    from otfs_sync.nn import layers

    logits = []
    original = layers.Linear.__dict__["forward"]

    def recording(*args, **kwargs):
        y = original(*args, **kwargs)
        logits.append(y)
        return y

    with monkeypatch.context() as m:
        m.setattr(layers.Linear, "forward", recording)
        classes = model.predict_classes(X, batch_size)
    return classes, np.concatenate(logits)


class TestTrunkTiles:
    """predict_classes runs the trunk a few captures at a time and fc once per
    batch_size chunk; the scores stay bitwise those of the untiled forward."""

    def test_tile_follows_the_byte_budget(self):
        # rb2's conv5 columns are the longest: 80 rows of L = MN/2 samples
        assert trunk_tile(256, 64, 4) == 1
        assert trunk_tile(32, 8, 4) == (4 << 20) // (4 * 80 * 128) == 102
        assert trunk_tile(32, 8, 8) == 51

    @pytest.mark.parametrize("head", ["coarse", "fine"])
    @pytest.mark.parametrize("M,N,B,batch_sizes", [
        (32, 8, 250, (120, 256)),   # tiles of 102: three per chunk above B
        (256, 64, 3, (2, 8)),       # tiles of 1
    ])
    def test_logits_bitwise_equal_untiled_forward(self, monkeypatch, head, M, N, B,
                                                  batch_sizes):
        model = _trained_looking_model(head, M, N, np.float32, seed=21)
        X = _rng(22).standard_normal((B, 2, M * N)).astype(np.float32)
        for bs in batch_sizes:
            classes, logits = _predict_with_logits(monkeypatch, model, X, bs)
            want = np.concatenate([model.net.forward(X[lo : lo + bs], cache=False)
                                   for lo in range(0, B, bs)])
            assert logits.shape == want.shape
            assert np.array_equal(logits, want), bs
            assert np.array_equal(classes, np.argmax(want, axis=1)), bs
        assert np.array_equal(logits, model.net.forward(X, cache=False))

    def test_default_scale_peak_does_not_grow_with_the_batch(self):
        import tracemalloc

        model = build_sync_model(256, 64, "coarse", seed=23)
        X = _rng(24).standard_normal((8, 2, 256 * 64)).astype(np.float32)
        peaks = {}
        for B in (1, 8):
            tracemalloc.start()
            try:
                model.predict_classes(X[:B])
                peaks[B] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[8] <= 1.5 * peaks[1], peaks


class TestBenchTracerContract:
    """The benchmark's span tracer wraps ``forward``/``backward`` taken from
    each layer class's own ``__dict__`` and counts conv MACs from the shape
    of the positional input of ``Conv1d.forward``."""

    def test_layer_classes_define_their_own_passes(self):
        from otfs_sync.nn import layers

        for cls in (layers.Conv1d, layers.BatchNorm1d, layers.ReLU, layers.MaxPool1d,
                    layers.Linear, layers.Flatten, layers.ResBlock):
            assert "forward" in cls.__dict__ and "backward" in cls.__dict__, cls.__name__

    def test_prediction_reaches_every_conv_with_its_input(self, monkeypatch):
        from otfs_sync.nn import layers

        seen = []
        original = layers.Conv1d.__dict__["forward"]

        def recording(*args, **kwargs):
            conv, x = args[0], args[1]
            seen.append((conv.out_channels, conv.kernel, x.shape))
            return original(*args, **kwargs)

        monkeypatch.setattr(layers.Conv1d, "forward", recording)
        M, N = 32, 8
        model = build_sync_model(M, N, "coarse", seed=0)
        model.predict_classes(np.zeros((3, 2, M * N), dtype=np.float32))
        want, L = [], M * N
        for _, cin, cout in TRUNK:
            want += [(cout, 7, (3, cin, L)), (cout, 5, (3, cout, L)), (cout, 3, (3, cout, L))]
            if cin != cout:
                want.append((cout, 1, (3, cin, L)))
            L //= 2
        assert sorted(seen) == sorted(want)
        conv_macs = sum(r.macs for r in flops_report(M, N, "coarse").rows if ".conv" in r.name)
        assert sum(B * L * o * C * k for o, k, (B, C, L) in seen) == 3 * conv_macs

    def test_default_scale_tiles_reach_every_conv_once_per_capture(self, monkeypatch):
        from otfs_sync.nn import layers

        seen = []
        original = layers.Conv1d.__dict__["forward"]

        def recording(*args, **kwargs):
            conv, x = args[0], args[1]
            seen.append((conv.out_channels, conv.kernel, x.shape))
            return original(*args, **kwargs)

        monkeypatch.setattr(layers.Conv1d, "forward", recording)
        M, N, B = 256, 64, 2
        model = build_sync_model(M, N, "coarse", seed=0)
        model.predict_classes(np.zeros((B, 2, M * N), dtype=np.float32))
        want, L = [], M * N
        for _, cin, cout in TRUNK:
            want += [(cout, 7, (1, cin, L)), (cout, 5, (1, cout, L)), (cout, 3, (1, cout, L))]
            if cin != cout:
                want.append((cout, 1, (1, cin, L)))
            L //= 2
        assert sorted(seen) == sorted(B * want)
        conv_macs = sum(r.macs for r in flops_report(M, N, "coarse").rows if ".conv" in r.name)
        assert sum(b * L * o * C * k for o, k, (b, C, L) in seen) == B * conv_macs
