import csv
import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import drope.profiling as profiling
import oracles
from drope.attention import PoseSet, QKVSet, RPEEncoders, Variant, mhsa, recording
from drope.cli import DEFAULT_PROFILE_GRID
from drope.errors import ConfigurationError, VerificationError
from drope.profiling import (
    check_sweep_trends,
    count_flops,
    count_input_memory,
    dense_flops,
    mlp_flops,
    sweep,
    verify_memory_ledger,
    write_sweep_csv,
    SWEEP_COLUMNS,
)

ALL_VARIANTS = list(Variant)
#: the default profile grid's largest (n_tokens, n_heads, d_k, d_v), which the gate checks
GRID_MAX = tuple(max(DEFAULT_PROFILE_GRID[key]) for key in ("n_tokens", "n_heads", "d_k", "d_v"))


class TestMemoryCounts:
    def test_plain_example_with_symbolic_widths(self):
        # N=4, H=2, QK width 8 (4 pairs), d_v=8: N*H*(2*w + d_v) = 192
        report = count_input_memory(Variant.PLAIN, 4, 2, 4, 8)
        assert report.qkv_scalars == 192
        assert report.pairwise_scalars == 0
        assert report.total_scalars == 192
        assert report.bytes_fp32 == 4 * 192 and report.bytes_fp64 == 8 * 192

    def test_rpe_adds_quadratic_pairwise_term(self):
        report = count_input_memory(Variant.RPE, 4, 2, 4, 8)
        assert report.pairwise_scalars == 4 * 4 * 2 * (8 + 8) == 512

    def test_rotary_embedded_term_and_in_place_mode(self):
        report = count_input_memory(Variant.ROPE, 4, 2, 4, 8)
        assert report.embedded_scalars == 2 * 4 * 2 * 8
        assert report.total_scalars_in_place == report.qkv_scalars
        plain = count_input_memory(Variant.PLAIN, 4, 2, 4, 8)
        assert report.total_scalars_in_place == plain.total_scalars

    def test_pairwise_ratio_is_linear_in_n(self):
        for n in (4, 8, 32):
            report = count_input_memory(Variant.RPE, n, 2, 4, 8)
            assert Fraction(report.pairwise_scalars, report.qkv_scalars) == Fraction(
                n * (2 * 4 + 8), 4 * 4 + 8
            )
        small = count_input_memory(Variant.RPE, 4, 2, 4, 8)
        big = count_input_memory(Variant.RPE, 8, 2, 4, 8)
        assert (
            Fraction(big.pairwise_scalars, big.qkv_scalars)
            == 2 * Fraction(small.pairwise_scalars, small.qkv_scalars)
        )

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_pairwise_count_is_what_the_oracle_materializes(self, monkeypatch, variant):
        """The engine streams the per-pair tensors and records none, so the
        count is measured on the scalar oracle, which builds each (query, key,
        head) triple's key and value offsets whole: their scalars, summed over
        a call, are the ledger's pairwise count (0 where no encoder runs)."""
        built = []

        def counted(*args):
            offsets = ref_mlp3(*args)
            built.append(len(offsets))
            return offsets

        ref_mlp3 = oracles.ref_mlp3
        monkeypatch.setattr(oracles, "ref_mlp3", counted)
        for n, d_k, d_v in ((4, 4, 8), (3, 3, 2)):     # value offsets wider, then narrower
            rng = np.random.default_rng(n)
            qkv, poses = QKVSet.random(n, 2, d_k, d_v, rng), PoseSet.random(n, rng)
            built.clear()
            oracles.ref_attention(
                variant.value, qkv.q, qkv.k, qkv.v,
                poses.positions, poses.headings, poses.positions, poses.headings,
                enc=RPEEncoders.seeded(d_k, d_v), split=(2 * (d_k // 2), 2 * (d_k - d_k // 2)),
            )
            ledger = count_input_memory(variant, n, 2, d_k, d_v)
            assert sum(built) == ledger.pairwise_scalars, (n, d_k, d_v)

    def test_dimension_validation(self):
        with pytest.raises(ConfigurationError):
            count_input_memory(Variant.PLAIN, 0, 1, 1, 1)

    def test_counter_overflow_raises(self):
        with pytest.raises(OverflowError):
            count_input_memory(Variant.RPE, 2**32, 2**8, 2**16, 2**16)


class TestMeasuredAgainstPredicted:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_engine_allocations_match_closed_form(self, variant):
        heads = (2, 4) if variant is Variant.DROPE_HBH else (1, 2, 4)
        for n in (2, 4, 16):
            for h in heads:
                verify_memory_ledger(variant, n, h, 4, 8)
        assert verify_memory_ledger(variant, *GRID_MAX) == count_input_memory(variant, *GRID_MAX)

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_inputs_are_one_qk_bank_and_read_only_zero_encoders(self, monkeypatch, variant):
        """The check passes one array as Q and K, and encoders that are
        read-only views of one read-only zeros buffer, so none is copied."""
        calls, engine = [], profiling.mhsa

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return engine(*args, **kwargs)

        monkeypatch.setattr(profiling, "mhsa", spy)
        verify_memory_ledger(variant, *GRID_MAX)
        ((qkv, poses, _), kwargs), = calls
        assert qkv.q is qkv.k and not poses.headings.any()
        enc = kwargs["enc"]
        if variant is not Variant.RPE:
            assert enc is None
            return
        arrays = [getattr(enc, field.name) for field in dataclasses.fields(enc)]
        base = arrays[0].base
        assert not base.flags.writeable and not base.any()
        assert all(array.base is base for array in arrays)
        assert base.size == sum(array.size for array in arrays)

    @pytest.mark.parametrize("category", ["qkv_scalars", "embedded_scalars"])
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_a_count_one_scalar_off_fails(self, monkeypatch, variant, category):
        # the check's inputs are constant, yet a wrong ledger still fails it
        count = profiling.count_input_memory

        def off_by_one(*args):
            report = count(*args)
            return dataclasses.replace(report, **{category: getattr(report, category) + 1})

        monkeypatch.setattr(profiling, "count_input_memory", off_by_one)
        for point in ((4, 2, 4, 8), GRID_MAX):
            with pytest.raises(VerificationError, match=f"^{variant.value} N={point[0]} "):
                verify_memory_ledger(variant, *point)

    def test_measured_mode_returns_categories(self):
        rng = np.random.default_rng(0)
        with recording() as records:
            mhsa(QKVSet.random(3, 2, 2, 4, rng), PoseSet.random(3, rng), Variant.RPE,
                 enc=RPEEncoders.seeded(2, 4))
        (measured,) = records
        assert set(measured) == {"qkv", "embedded"}
        assert measured["qkv"] == 3 * 2 * (2 * 4 + 4)


class TestFlopCounts:
    def test_single_token_scores_and_weighted_sum(self):
        report = count_flops(Variant.PLAIN, 1, None, 3, 4, 5)
        assert report.flops_scores == 2 * 3 * 8
        assert report.flops_weighted_sum == 2 * 3 * 5
        assert report.flops_embedding == 0 and report.flops_rpe_encoders == 0

    def test_doubling_tokens_quadruples_score_flops(self):
        base = count_flops(Variant.PLAIN, 16, None, 2, 4, 4)
        doubled = count_flops(Variant.PLAIN, 32, None, 2, 4, 4)
        assert doubled.flops_scores == 4 * base.flops_scores

    def test_rotary_embedding_constant(self):
        report = count_flops(Variant.DROPE_HBH, 8, None, 2, 4, 4)
        assert report.flops_embedding == 6 * (8 + 8) * 2 * 4

    def test_components_sum_to_total(self):
        for variant in ALL_VARIANTS:
            report = count_flops(variant, 8, None, 2, 4, 4, full=True)
            assert report.total == (
                report.flops_scores + report.flops_weighted_sum
                + report.flops_embedding + report.flops_rpe_encoders
                + report.flops_softmax
            )
            assert min(
                report.flops_scores, report.flops_weighted_sum,
                report.flops_embedding, report.flops_rpe_encoders,
                report.flops_softmax,
            ) >= 0

    def test_rpe_encoder_component(self):
        report = count_flops(Variant.RPE, 4, None, 2, 3, 5)
        # the key encoder's second layer has no bias
        per_pair = mlp_flops(3, 32, 6) - 6 + mlp_flops(3, 32, 5) + 4
        assert report.flops_rpe_encoders == 16 * per_pair + 16 * 2 * (6 + 5)

    def test_rpe_encoders_counted_at_the_engine_encoders_widths(self):
        n, m, h, d_k, d_v = 4, 6, 2, 3, 5
        enc = RPEEncoders.seeded(d_k, d_v)
        per_pair = 4    # the relative descriptor
        for side in ("k", "v"):
            (n_in, hidden), (_, n_out) = (getattr(enc, f"{w}_{side}").shape for w in ("w1", "w2"))
            out_bias = getattr(enc, f"b2_{side}", np.empty(0)).size    # the key encoder has none
            per_pair += 2 * n_in * hidden + hidden + hidden + 2 * hidden * n_out + out_bias
        report = count_flops(Variant.RPE, n, m, h, d_k, d_v)
        assert report.flops_rpe_encoders == n * m * per_pair + n * m * h * (2 * d_k + d_v)

    def test_rpe_exceeds_drope_by_more_than_two(self):
        rpe = count_flops(Variant.RPE, 64, None, 4, 32, 64)
        hbh = count_flops(Variant.DROPE_HBH, 64, None, 4, 32, 64)
        assert rpe.total / hbh.total > 2.0

    def test_cross_attention_token_counts(self):
        report = count_flops(Variant.ROPE, 3, 5, 2, 4, 4)
        assert report.flops_scores == 2 * 3 * 5 * 2 * 8
        assert report.flops_embedding == 6 * (3 + 5) * 2 * 4

    def test_counts_are_reproducible(self):
        first = count_flops(Variant.RPE, 64, None, 4, 32, 64)
        second = count_flops(Variant.RPE, 64, None, 4, 32, 64)
        assert first == second

    def test_dense_and_mlp_helpers(self):
        assert dense_flops(3, 32) == 2 * 3 * 32 + 32
        assert mlp_flops(3, 32, 8) == dense_flops(3, 32) + 32 + dense_flops(32, 8)


class TestSweep:
    def make_rows(self):
        points = [(n, 2, 4, 8) for n in (16, 32, 64)]
        return sweep(points, ALL_VARIANTS)

    def test_row_count_and_order(self):
        rows = self.make_rows()
        assert len(rows) == 3 * len(ALL_VARIANTS)
        assert rows[0]["variant"] == "plain" and rows[0]["n_tokens"] == 16

    def test_pairwise_quadruples_when_n_doubles(self):
        rows = [r for r in self.make_rows() if r["variant"] == "rpe"]
        assert rows[1]["pairwise_scalars"] == 4 * rows[0]["pairwise_scalars"]
        assert rows[2]["pairwise_scalars"] == 4 * rows[1]["pairwise_scalars"]

    def test_drope_in_place_memory_equals_plain(self):
        rows = self.make_rows()
        plain = {r["n_tokens"]: r["total_scalars"] for r in rows if r["variant"] == "plain"}
        for row in rows:
            if row["variant"] in ("rope", "drope-hbh", "drope-ih"):
                assert row["total_scalars_in_place"] == plain[row["n_tokens"]]

    def test_trend_checks_pass_on_consistent_rows(self):
        check_sweep_trends(self.make_rows())

    def test_trend_checks_catch_corruption(self):
        rows = self.make_rows()
        for row in rows:
            if row["variant"] == "rpe" and row["n_tokens"] == 32:
                row["pairwise_scalars"] += 1
        with pytest.raises(VerificationError):
            check_sweep_trends(rows)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep([], ALL_VARIANTS)
        with pytest.raises(ConfigurationError):
            sweep([(2, 1, 1, 1)], [])

    def test_csv_round_trip(self, tmp_path):
        rows = self.make_rows()
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        with open(path) as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == len(rows)
        assert tuple(parsed[0].keys()) == SWEEP_COLUMNS
        assert int(parsed[0]["total_scalars"]) == rows[0]["total_scalars"]
