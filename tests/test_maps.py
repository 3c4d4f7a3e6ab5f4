import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loewner_lab import (
    CongruenceMap,
    DimensionMismatchError,
    IdentityMap,
    KrausSumMap,
    MixtureMap,
    NormalizedTraceMap,
    PinchingMap,
    SplitMix64,
    check_unital,
    kernel_catalog,
    parse_map,
)
from loewner_lab.certificates import ROWS, check_stack
from loewner_lab.cli import main as cli_main
from loewner_lab.generate import derive_seed, _spd
from loewner_lab.maps import DEFAULT_MAP_SPECS, apply_each
from loewner_lab.kernels import GEOMETRIC
from loewner_lab.spectral import SymStack, op_norm
from oracles import certify, one

A14 = one(np.diag([1.0, 4.0]))
A41 = one(np.diag([4.0, 1.0]))


def _default_maps(dim, rng):
    return [parse_map(spec, dim, rng) for spec in DEFAULT_MAP_SPECS]


def psd(dim, seed):
    rng = SplitMix64(seed)
    raw = rng.normal_matrix(dim, dim)
    return one(raw @ raw.T)


class TestApply:
    def test_identity(self):
        x = psd(3, 1)
        np.testing.assert_allclose(IdentityMap(3).apply(x).data, x.data)

    def test_normalized_trace_scalar_output(self):
        out = NormalizedTraceMap(2, 1).apply(A14)
        np.testing.assert_allclose(out.data[0], [[2.5]])

    def test_congruence_projects_entry(self):
        out = CongruenceMap(np.array([[1.0], [0.0]])).apply(A14)
        np.testing.assert_allclose(out.data[0], [[1.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            IdentityMap(3).apply(A14)

    def test_pinching_zeroes_cross_blocks(self):
        x = one([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
        out = PinchingMap(((0, 1), (2,))).apply(x)
        expected = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 6.0]])
        np.testing.assert_allclose(out.data[0], expected)

    def test_kraus_sum(self):
        v1 = np.eye(2)
        v2 = 2.0 * np.eye(2)
        out = KrausSumMap((v1, v2)).apply(A14)
        np.testing.assert_allclose(out.data, 5.0 * A14.data)

    def test_mixture(self):
        phi = MixtureMap((0.5, 2.0), (IdentityMap(2), IdentityMap(2)))
        np.testing.assert_allclose(phi.apply(A14).data, 2.5 * A14.data)

    def test_linearity(self):
        rng = SplitMix64(3)
        pool = _default_maps(3, rng)
        for phi in pool:
            x = psd(3, derive_seed(10, 1))
            y = psd(3, derive_seed(10, 2))
            combo = phi.apply(SymStack(2.0 * x.data - 0.7 * y.data))
            parts = 2.0 * phi.apply(x) - 0.7 * phi.apply(y)
            scale = max(1.0, op_norm(combo)[0])
            assert np.linalg.norm((combo - parts).data) <= 1e-10 * scale, phi.label

    def test_positivity_on_random_psd(self):
        rng = SplitMix64(4)
        pool = _default_maps(3, rng)
        for phi in pool:
            for seed in range(200):
                x = psd(3, derive_seed(20, seed))
                image = phi.apply(x)
                lo = float(np.linalg.eigvalsh(image.data[0])[0])
                assert lo >= -1e-10 * max(1.0, op_norm(image)[0]), phi.label


class TestValidation:
    def test_congruence_requires_full_column_rank(self):
        with pytest.raises(ValueError):
            CongruenceMap(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_wide_congruence_factor_is_refused(self, capsys):
        # a 2x3 V has only two singular values, so it cannot have rank 3
        with pytest.raises(ValueError, match="^V must have full column rank$"):
            CongruenceMap(SplitMix64(4).normal_matrix(2, 3))
        code = cli_main(["verify", "--ineq", "ando", "--dims", "2", "--trials", "5",
                         "--phi", "congruence:random:2x3"])
        assert code == 2
        assert "V must have full column rank" in capsys.readouterr().err

    def test_wide_kraus_factors_are_refused(self):
        rng = SplitMix64(4)
        with pytest.raises(ValueError, match="^stacked Kraus terms must have full column rank$"):
            KrausSumMap((rng.normal_matrix(1, 3), rng.normal_matrix(1, 3)))
        # two 1x2 terms stack to a square factor of full rank
        assert KrausSumMap((rng.normal_matrix(1, 2), rng.normal_matrix(1, 2))).output_dim == 2

    def test_pinching_requires_partition(self):
        with pytest.raises(ValueError):
            PinchingMap(((0, 1), (1, 2)))

    def test_mixture_requires_nonnegative_weights(self):
        with pytest.raises(ValueError):
            MixtureMap((-1.0,), (IdentityMap(2),))

    def test_mixture_requires_positive_total(self):
        with pytest.raises(ValueError):
            MixtureMap((0.0,), (IdentityMap(2),))

    def test_mixture_requires_matching_dims(self):
        with pytest.raises(ValueError):
            MixtureMap((1.0, 1.0), (IdentityMap(2), IdentityMap(3)))


class TestUnitality:
    def test_identity_unital(self):
        verdict = check_unital(IdentityMap(4))
        assert verdict.is_unital
        assert verdict.deviation == 0.0

    def test_normalized_trace_unital(self):
        verdict = check_unital(NormalizedTraceMap(2, 1))
        assert verdict.is_unital
        assert verdict.deviation <= 1e-12

    def test_scaled_congruence_not_unital(self):
        # V = 2I gives phi(I) = 4I, deviation 3
        verdict = check_unital(CongruenceMap(2.0 * np.eye(3)))
        assert not verdict.is_unital
        assert verdict.deviation == pytest.approx(3.0)

    def test_catalog_flags(self):
        rng = SplitMix64(5)
        flags = {phi.label: check_unital(phi).is_unital for phi in _default_maps(3, rng)}
        assert flags["identity"]
        assert flags["ntrace:1"]
        assert flags["ntrace:3"]
        assert flags["pinching:1,2"]


class TestAndoCheck:
    def test_identity_map_equality(self):
        a, b = psd(3, 31) + SymStack.identity(3), psd(3, 32) + SymStack.identity(3)
        cert = certify("ando", a, b, phi=IdentityMap(3), sigma=GEOMETRIC)
        assert cert.holds
        assert abs(cert.slack) <= 1e-10 * max(1.0, op_norm(a)[0] + op_norm(b)[0])

    def test_trace_map_hand_values(self):
        cert = certify("ando", A14, A41, phi=NormalizedTraceMap(2, 1), sigma=GEOMETRIC)
        np.testing.assert_allclose(cert.lhs.data[0], [[2.0]], atol=1e-12)
        np.testing.assert_allclose(cert.rhs.data[0], [[2.5]], atol=1e-12)
        assert cert.holds

    def test_pinching_fixes_diagonal_instances(self):
        phi = PinchingMap(((0,), (1,)))
        cert = certify("ando", A14, A41, phi=phi, sigma=GEOMETRIC)
        assert cert.holds
        assert abs(cert.slack) <= 1e-10

    def test_all_catalog_maps_and_kernels(self):
        # 200 random PD pairs per (map, kernel) combination, as one stack each
        dim = 3
        rng = SplitMix64(derive_seed(77, dim))
        pool = _default_maps(dim, rng)
        pair_rng = SplitMix64(derive_seed(88, dim))
        pairs = [
            (_spd([pair_rng], dim, 0.25, 4.0), _spd([pair_rng], dim, 0.25, 4.0))
            for _ in range(200)
        ]
        A, B = (SymStack(np.concatenate([m.data for m in mats])) for mats in zip(*pairs))
        for phi in pool:
            for kernel in kernel_catalog():
                result = check_stack(ROWS["ando"], A, B, [()] * len(pairs),
                                     {"phi": [phi] * len(pairs), "sigma": [kernel] * len(pairs)})
                failing = [idx for idx, holds in enumerate(result.holds) if not holds]
                assert failing == [], (phi.label, kernel.id, failing)


class TestParseMap:
    def test_vocabulary(self):
        rng = SplitMix64(6)
        assert parse_map("identity", 3, rng).label == "identity"
        assert parse_map("ntrace:1", 3, rng).label == "ntrace:1"
        assert parse_map("ntrace:full", 3, rng).output_dim == 3
        assert parse_map("pinching:1,2", 3, rng).label == "pinching:1,2"
        assert parse_map("congruence:random:3x2", 3, rng).output_dim == 2
        assert parse_map("kraus:2", 3, rng).label == "kraus:2"
        mixed = parse_map("mix:20@ntrace:1", 2, rng)
        np.testing.assert_allclose(mixed.apply(A14).data[0], [[50.0]])

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_map("choi", 3, SplitMix64(0))

    def test_pinching_sizes_must_cover(self):
        with pytest.raises(ValueError):
            parse_map("pinching:1,1", 3, SplitMix64(0))


# Maps of one output dimension (3), each built from the same stream.
_SAME_DIM_SPECS = ("identity", "pinching:1,2", "ntrace:full", "congruence:random",
                   "kraus:2", "mix:0.5@congruence:random+0.5@identity", "mix:2@pinching:2,1")


@settings(max_examples=40, deadline=None)
@given(picks=st.lists(st.integers(0, len(_SAME_DIM_SPECS) - 1), min_size=1, max_size=12),
       seed=st.integers(0, 2**64 - 1))
def test_apply_each_gives_each_slice_its_maps_bits(picks, seed):
    # one product per distinct map over its slices, scattered back in slice
    # order: each slice gets, bit for bit, what its map gives it alone
    rng = SplitMix64(seed)
    maps = [parse_map(spec, 3, rng) for spec in _SAME_DIM_SPECS]
    X = _spd([SplitMix64(derive_seed(seed, k)) for k in range(len(picks))], 3, 0.25, 4.0)
    image = apply_each([maps[i] for i in picks], X)
    assert image.data.shape == (len(picks), 3, 3)
    for k, i in enumerate(picks):
        alone = maps[i].apply(SymStack(X.data[k:k + 1]))
        assert image.data[k].tobytes() == alone.data[0].tobytes(), maps[i].label


def test_apply_each_refuses_maps_of_two_output_dims():
    X = _spd([SplitMix64(1), SplitMix64(2)], 2, 0.25, 4.0)
    with pytest.raises(DimensionMismatchError,
                       match=r"must share one shape, got \(2, 2\) and \(1, 1\)"):
        apply_each([IdentityMap(2), NormalizedTraceMap(2, 1)], X)
