import itertools
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from farspot import netcore
from farspot.netcore import (
    ModelSpec,
    Network,
    NetworkError,
    Posteriorgram,
    init_network,
    param_count,
)
from helpers import (
    BYTE_FLIPS,
    central_diff_grad,
    check_batch_invariance,
    check_batch_invariance_at_kws_teacher_shape,
    flip_bytes,
    grad_rel_err,
    kernel_digests,
    reference_backward_batch,
    reference_forward_batch,
    run_at_one_blas_thread_per_cpu,
)


def _tiny_spec(**kw):
    defaults = dict(input_dim=3, layers=1, hidden=4, projection=0,
                    output_dim=2, peepholes=False)
    defaults.update(kw)
    return ModelSpec(**defaults)


def _scalar_loss(net, x, w_target):
    """0.5 * sum((logits - target)^2); used for gradient checks."""
    logits, cache = netcore.forward_batch(net, x)
    diff = logits.astype(np.float64) - w_target
    return 0.5 * np.sum(diff**2), cache, diff


class TestSpecAndLayout:
    def test_plain_lstm_block_count(self):
        spec = _tiny_spec()
        names = [n for n, _ in netcore.layout(spec)]
        assert names == ["l0.wx", "l0.wr", "l0.bias", "out.w", "out.b"]

    def test_param_count_by_hand(self):
        # 4h*d + 4h*h + 4h + N*h + N with d=3, h=4, N=2
        assert param_count(_tiny_spec()) == 48 + 64 + 16 + 8 + 2

    def test_projection_and_peepholes_change_layout(self):
        spec = _tiny_spec(projection=2, peepholes=True)
        names = [n for n, _ in netcore.layout(spec)]
        assert names == ["l0.wx", "l0.wr", "l0.bias", "l0.peep", "l0.proj", "out.w", "out.b"]
        # wr is (4h, p); out.w is (N, p)
        shapes = dict(netcore.layout(spec))
        assert shapes["l0.wr"] == (16, 2)
        assert shapes["out.w"] == (2, 2)

    def test_factored_block_param_arithmetic(self):
        # 1024 x 512 at rank 64: 1024*64 + 64*512 = 98304
        dense = ModelSpec(input_dim=512, layers=1, hidden=256, projection=0,
                          output_dim=1, peepholes=False)
        fact = ModelSpec(input_dim=512, layers=1, hidden=256, projection=0,
                         output_dim=1, peepholes=False,
                         svd_rank=(("l0.wx", 64),))
        # l0.wx is (1024, 512)
        assert dict(netcore.layout(dense))["l0.wx"] == (1024, 512)
        assert param_count(dense) - param_count(fact) == 1024 * 512 - 98304

    def test_rank_exceeding_dims_rejected(self):
        with pytest.raises(NetworkError):
            param_count(_tiny_spec(svd_rank=(("l0.wx", 99),)))

    @pytest.mark.parametrize("block", ["l0.bias", "l9.wx", "out"])
    def test_rank_of_no_weight_matrix_rejected(self, block):
        with pytest.raises(NetworkError, match=f"of {block}: .* weight matrix \\(None\\)"):
            _tiny_spec(svd_rank=((block, 1),))

    # a dict, pairs as lists or tuples, in any order: one sorted tuple of pairs
    @pytest.mark.parametrize("svd_rank", [
        {"l0.wx": 2, "l0.wr": 3}, [["l0.wx", 2], ["l0.wr", 3]], (["l0.wr", 3], ["l0.wx", 2]),
        (("l0.wx", 2), ("l0.wr", 3)), {}, (), None])
    def test_every_svd_rank_form_is_normalized(self, svd_rank):
        spec = _tiny_spec(svd_rank=svd_rank)
        assert spec.svd_rank == ((("l0.wr", 3), ("l0.wx", 2)) if svd_rank else None)
        assert ModelSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("svd_rank, message", [
        ([["l0.wx", 2], ["l0.wx", 3]], "names a block twice"),
        ([["l0.wx", 2, 3]], r"must be \(block, rank\) pairs"),
        (5, r"must be \(block, rank\) pairs")])
    def test_svd_rank_of_a_block_twice_or_of_no_pairs_rejected(self, svd_rank, message):
        with pytest.raises(NetworkError, match=message):
            _tiny_spec(svd_rank=svd_rank)

    def test_spec_round_trips_through_dict(self):
        spec = _tiny_spec(projection=2, peepholes=True, svd_rank=(("l0.wx", 2),))
        assert ModelSpec.from_dict(spec.to_dict()) == spec

    def test_wrong_parameter_length_rejected(self):
        with pytest.raises(NetworkError):
            Network(_tiny_spec(), np.zeros(7))


class TestForward:
    def test_zero_parameters_give_uniform_posteriors(self):
        spec = _tiny_spec(output_dim=5)
        net = Network(spec, np.zeros(param_count(spec)))
        post = netcore.forward(net, np.random.default_rng(0).standard_normal((6, 3)))
        assert np.allclose(post.rows, 0.2)

    def test_scalar_recurrence_by_hand(self):
        # h = 1, d = 1, N = 1, no peepholes/projection: replay the update
        # equations with plain floats
        spec = ModelSpec(input_dim=1, layers=1, hidden=1, projection=0,
                         output_dim=1, peepholes=False)
        net = Network(spec, np.zeros(param_count(spec)))
        wx_i, wx_f, wx_g, wx_o = 0.3, -0.2, 0.7, 0.4
        wr_i, wr_f, wr_g, wr_o = 0.1, 0.5, -0.3, 0.2
        b_i, b_f, b_g, b_o = 0.05, 1.0, -0.1, 0.2
        net.block("l0.wx")[...] = np.array([[wx_i], [wx_f], [wx_g], [wx_o]])
        net.block("l0.wr")[...] = np.array([[wr_i], [wr_f], [wr_g], [wr_o]])
        net.block("l0.bias")[...] = np.array([b_i, b_f, b_g, b_o])
        net.block("out.w")[...] = np.array([[1.5]])
        net.block("out.b")[...] = np.array([-0.25])

        xs = [0.4, -0.8, 1.1]
        logits, _ = netcore.forward_batch(net, np.array(xs)[None, :, None])

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        c = m = 0.0
        for t, x in enumerate(xs):
            i = sig(wx_i * x + wr_i * m + b_i)
            f = sig(wx_f * x + wr_f * m + b_f)
            g = np.tanh(wx_g * x + wr_g * m + b_g)
            c = f * c + i * g
            o = sig(wx_o * x + wr_o * m + b_o)
            m = o * np.tanh(c)
            assert logits[0, t, 0] == pytest.approx(1.5 * m - 0.25, abs=1e-12)

    def test_shapes(self):
        spec = _tiny_spec(layers=2, projection=2, peepholes=True, output_dim=6)
        net = init_network(spec, np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((3, 5, 3))
        logits, cache = netcore.forward_batch(net, x)
        assert logits.shape == (3, 5, 6)

    def test_posteriors_are_row_stochastic(self):
        spec = _tiny_spec(output_dim=4)
        net = init_network(spec, np.random.default_rng(2))
        post = netcore.forward(net, np.random.default_rng(3).standard_normal((12, 3)))
        assert np.allclose(post.rows.sum(axis=1), 1.0, atol=1e-12)

    def test_forward_is_deterministic(self):
        spec = _tiny_spec(layers=2)
        net = init_network(spec, np.random.default_rng(5))
        x = np.random.default_rng(6).standard_normal((2, 9, 3))
        a, _ = netcore.forward_batch(net, x, want_cache=False)
        b, _ = netcore.forward_batch(net, x, want_cache=False)
        assert np.array_equal(a, b)

    def test_input_dim_mismatch_rejected(self):
        net = init_network(_tiny_spec(), np.random.default_rng(0))
        with pytest.raises(NetworkError):
            netcore.forward_batch(net, np.zeros((1, 4, 5)))

    def test_init_sets_forget_gate_bias(self):
        spec = _tiny_spec(peepholes=True)
        net = init_network(spec, np.random.default_rng(0))
        bias = net.block("l0.bias")
        h = spec.hidden
        assert np.all(bias[h : 2 * h] == 1.0)
        assert np.all(bias[:h] == 0.0)
        assert np.all(net.block("l0.peep") == 0.0)


class TestBackward:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        spec = _tiny_spec(
            layers=int(rng.integers(1, 3)),
            projection=int(rng.choice([0, 2])),
            peepholes=bool(rng.integers(2)),
        )
        net = init_network(spec, rng)
        net.parameters += rng.uniform(-0.3, 0.3, net.parameters.shape)
        x = rng.standard_normal((2, 4, 3))
        target = rng.standard_normal((2, 4, 2))

        _, cache, diff = _scalar_loss(net, x, target)
        analytic = netcore.backward_batch(net, cache, diff)

        def loss_at(params):
            return _scalar_loss(Network(spec, params), x, target)[0]

        numeric = central_diff_grad(loss_at, net.parameters)
        assert grad_rel_err(analytic, numeric) < 1e-6

    def test_gradient_with_svd_factors(self):
        rng = np.random.default_rng(42)
        spec = _tiny_spec(svd_rank=(("l0.wr", 2), ("l0.wx", 2)))
        net = init_network(spec, rng)
        net.parameters += rng.uniform(-0.3, 0.3, net.parameters.shape)
        x = rng.standard_normal((1, 5, 3))
        target = rng.standard_normal((1, 5, 2))
        _, cache, diff = _scalar_loss(net, x, target)
        analytic = netcore.backward_batch(net, cache, diff)
        numeric = central_diff_grad(
            lambda p: _scalar_loss(Network(spec, p), x, target)[0], net.parameters
        )
        assert grad_rel_err(analytic, numeric) < 1e-6

    def test_batch_gradient_is_sum_of_per_sequence_gradients(self):
        rng = np.random.default_rng(7)
        spec = _tiny_spec(layers=2)
        net = init_network(spec, rng)
        x = rng.standard_normal((2, 6, 3))
        target = rng.standard_normal((2, 6, 2))
        _, cache, diff = _scalar_loss(net, x, target)
        together = netcore.backward_batch(net, cache, diff)
        separate = np.zeros_like(together)
        for j in range(2):
            _, cj, dj = _scalar_loss(net, x[j : j + 1], target[j : j + 1])
            separate += netcore.backward_batch(net, cj, dj)
        assert np.allclose(together, separate, atol=1e-10)

    def test_zero_upstream_gradient_gives_zero_parameter_gradient(self):
        rng = np.random.default_rng(8)
        net = init_network(_tiny_spec(), rng)
        x = rng.standard_normal((1, 5, 3))
        logits, cache = netcore.forward_batch(net, x)
        grad = netcore.backward_batch(net, cache, np.zeros_like(logits))
        assert np.all(grad == 0.0)

    def test_padded_frames_with_zero_upstream_do_not_contribute(self):
        # a batch of [len-4, len-6] sequences must give the same gradient as
        # the two sequences run separately
        rng = np.random.default_rng(9)
        spec = _tiny_spec()
        net = init_network(spec, rng)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((6, 3))
        ta = rng.standard_normal((4, 2))
        tb = rng.standard_normal((6, 2))

        x = np.zeros((2, 6, 3))
        x[0, :4], x[1] = a, b
        logits, cache = netcore.forward_batch(net, x)
        dlog = np.zeros((2, 6, 2))
        dlog[0, :4] = logits[0, :4] - ta
        dlog[1] = logits[1] - tb
        batched = netcore.backward_batch(net, cache, dlog)

        separate = np.zeros_like(batched)
        for frames, tgt in ((a, ta), (b, tb)):
            lg, c = netcore.forward_batch(net, frames[None])
            separate += netcore.backward_batch(net, c, lg - tgt[None])
        assert np.allclose(batched, separate, atol=1e-10)


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestKernelsMatchReference:
    """`forward_batch`/`backward_batch` against the plain per-frame kernels in
    helpers: logits and gradients must be equal byte for byte, because
    checkpoints, scores and FAs depend on every bit.  Each weight gradient
    is one BLAS product per frame summed in frame order, whatever the layout
    of the layer input: a (B, T, d) batch at layer 0, a (B, T, r) view of the
    layer below's (T, B, r) output deeper, hence 1-3 layers and both input
    layouts."""

    @staticmethod
    def _check(spec, lengths, seed, time_major_input=False):
        rng = np.random.default_rng(seed)
        net = init_network(spec, rng)
        net.parameters[...] = rng.normal(0.0, 0.5, net.parameters.shape)
        b, t = len(lengths), max(lengths)
        x = np.zeros((b, t, spec.input_dim))
        dlogits = np.zeros((b, t, spec.output_dim))
        for j, n in enumerate(lengths):  # trailing padding, zero upstream there
            x[j, :n] = rng.standard_normal((n, spec.input_dim))
            dlogits[j, :n] = rng.standard_normal((n, spec.output_dim))
        if time_major_input:  # a (B, T, d) view of a (T, B, d) array
            x = np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2)

        ref_logits, ref_cache = reference_forward_batch(net, x)
        logits, cache = netcore.forward_batch(net, x)
        assert _same_bytes(logits, ref_logits)
        assert _same_bytes(netcore.forward_batch(net, x, want_cache=False)[0], ref_logits)
        ref_grad = reference_backward_batch(net, ref_cache, dlogits)
        grad = netcore.backward_batch(net, cache, dlogits)
        assert _same_bytes(grad, ref_grad), np.max(np.abs(grad - ref_grad))

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("peepholes", [False, True])
    @pytest.mark.parametrize("projection", [0, 4])
    def test_bit_identical_to_reference(self, layers, peepholes, projection):
        factored = {f"l{i}.{w}": 3 for i in range(layers) for w in ("wx", "wr")}
        for svd, b in itertools.product([False, True], [1, 3, 8, 16]):
            spec = ModelSpec(input_dim=11, layers=layers, hidden=9, projection=projection,
                             output_dim=5, peepholes=peepholes,
                             svd_rank=tuple(sorted(factored.items())) if svd else None)
            lengths = [9 - 2 * (j % 4) for j in range(b)]
            self._check(spec, lengths, seed=layers * 1000 + b)
            self._check(spec, lengths, seed=layers * 1000 + b + 1, time_major_input=True)

    def test_bit_identical_at_kws_teacher_shape(self):
        spec = ModelSpec(input_dim=160, layers=2, hidden=48, output_dim=5, peepholes=False)
        self._check(spec, [38] * 12 + [30, 25, 20, 14], seed=3)

    def test_same_bytes_at_one_blas_thread_per_cpu(self):
        # No bit of the logits or the gradient may follow the BLAS thread
        # count, which is the caller's.  As in TestBatchInvariance, the other
        # side runs in a process of its own with one thread per CPU.
        out = run_at_one_blas_thread_per_cpu(
            "import json\nfrom helpers import kernel_digests\n"
            "print(json.dumps(kernel_digests()))\n")
        assert json.loads(out) == kernel_digests()


class TestBatchInvariance:
    """Given `lengths`, each row of `forward_batch` is the forward of that
    utterance alone, byte for byte, whatever else is in the batch."""

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("peepholes", [False, True])
    @pytest.mark.parametrize("projection", [0, 4])
    def test_rows_equal_single_utterance_forward(self, layers, peepholes, projection):
        factored = {f"l{i}.{w}": 3 for i in range(layers) for w in ("wx", "wr")}
        for svd, b in itertools.product([False, True], [1, 3, 17, 40]):
            spec = ModelSpec(input_dim=11, layers=layers, hidden=9, projection=projection,
                             output_dim=5, peepholes=peepholes,
                             svd_rank=tuple(sorted(factored.items())) if svd else None)
            # unsorted, unequal lengths with a 1-frame sequence
            lengths = [1 + (7 * j + 5) % 23 for j in range(b)]
            lengths[b // 2] = 1
            check_batch_invariance(spec, lengths, seed=layers * 1000 + b)

    def test_rows_equal_single_utterance_forward_at_kws_teacher_shape(self):
        check_batch_invariance_at_kws_teacher_shape()

    def test_rows_equal_single_utterance_forward_at_one_blas_thread_per_cpu(self):
        # The suite runs BLAS at one thread (tests/conftest.py), and BLAS reads
        # its thread count at start-up, so this check runs in a process of
        # its own with one thread per CPU.
        run_at_one_blas_thread_per_cpu(
            "from helpers import check_batch_invariance_at_kws_teacher_shape\n"
            "check_batch_invariance_at_kws_teacher_shape()\n")

    @pytest.mark.parametrize("lengths", [[3, 2], [3, 4, 2], [3, -1, 2]])
    def test_bad_lengths_rejected(self, lengths):
        net = init_network(_tiny_spec(), np.random.default_rng(0))
        with pytest.raises(NetworkError, match="lengths"):
            netcore.forward_batch(net, np.zeros((3, 3, 3)), lengths=lengths)


class TestSvdCompression:
    def test_full_rank_reconstructs_weights(self):
        rng = np.random.default_rng(10)
        net = init_network(_tiny_spec(), rng)
        spec = _tiny_spec(svd_rank=(("l0.wx", 3),))  # min(16, 3) = 3 = full rank
        comp = Network(spec, np.zeros(param_count(spec)))
        for name in ("l0.wr", "l0.bias", "out.w", "out.b"):
            comp.block(name)[...] = net.block(name)
        u, s, vt = np.linalg.svd(net.block("l0.wx"), full_matrices=False)
        comp.block("l0.wx.u")[...] = u * s
        comp.block("l0.wx.v")[...] = vt
        assert np.allclose(comp.weight("l0.wx"), net.block("l0.wx"), atol=1e-10)
        x = rng.standard_normal((1, 7, 3))
        a, _ = netcore.forward_batch(net, x, want_cache=False)
        b, _ = netcore.forward_batch(comp, x, want_cache=False)
        assert np.allclose(a, b, atol=1e-8)


class TestReferenceSpecs:
    def test_large_spec_param_count(self):
        n = param_count(netcore.large_kws_spec())
        assert n == 24_155_653
        assert abs(n - 24.16e6) / 24.16e6 < 0.01

    def test_small_spec_param_count(self):
        n = param_count(netcore.small_kws_spec())
        assert n == 891_269
        assert abs(n - 0.89e6) / 0.89e6 < 0.05

    def test_compression_ratio(self):
        ratio = param_count(netcore.large_kws_spec()) / param_count(netcore.small_kws_spec())
        assert abs(ratio - 27.0) < 2.0


class TestCheckpoints:
    def test_round_trip_is_bit_exact(self, tmp_path):
        spec = _tiny_spec(layers=2, projection=2, peepholes=True,
                          svd_rank=(("l0.wx", 2),))
        net = init_network(spec, np.random.default_rng(14))
        p = tmp_path / "m.ckpt"
        netcore.save_checkpoint(net, p)
        back = netcore.load_checkpoint(p)
        assert back.spec == spec
        assert back.parameters.dtype == net.parameters.dtype
        assert np.array_equal(back.parameters, net.parameters)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(NetworkError):
            netcore.load_checkpoint(p)

    def test_truncated_payload_rejected(self, tmp_path):
        net = init_network(_tiny_spec(), np.random.default_rng(16))
        p = tmp_path / "t.ckpt"
        netcore.save_checkpoint(net, p)
        p.write_bytes(p.read_bytes()[:-16])
        with pytest.raises(NetworkError):
            netcore.load_checkpoint(p)

    def test_every_truncation_and_bad_dtype_rejected(self, tmp_path):
        # every proper prefix of a valid checkpoint, a dtype code other than
        # 0 (float64) and trailing bytes must fail with the module's own
        # error type
        net = init_network(_tiny_spec(peepholes=True), np.random.default_rng(17))
        p = tmp_path / "m.ckpt"
        netcore.save_checkpoint(net, p)
        data = p.read_bytes()
        bad = tmp_path / "bad.ckpt"
        for cut in range(len(data)):
            bad.write_bytes(data[:cut])
            with pytest.raises(NetworkError):
                netcore.load_checkpoint(bad)
        (spec_len,) = struct.unpack_from("<I", data, 8)
        code_at = 12 + spec_len
        for code in (b"\x01", b"\x07"):
            bad.write_bytes(data[:code_at] + code + data[code_at + 1 :])
            with pytest.raises(NetworkError, match="dtype"):
                netcore.load_checkpoint(bad)
        bad.write_bytes(data + b"\x00" * 8)
        with pytest.raises(NetworkError, match="payload"):
            netcore.load_checkpoint(bad)

    @given(flips=BYTE_FLIPS)
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_byte_flips_load_or_raise_network_error(self, tmp_path, flips):
        net = init_network(_tiny_spec(peepholes=True), np.random.default_rng(18))
        p = tmp_path / "m.ckpt"
        netcore.save_checkpoint(net, p)
        p.write_bytes(flip_bytes(p.read_bytes(), flips))
        try:
            netcore.load_checkpoint(p)
        except NetworkError:
            pass


class TestPosteriorgram:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(NetworkError):
            Posteriorgram(np.array([[0.5, 0.4]]))

    def test_negative_rows_rejected(self):
        with pytest.raises(NetworkError):
            Posteriorgram(np.array([[1.2, -0.2]]))
