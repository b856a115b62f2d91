"""Name grammar, rule validation, conversions, and parameter counting."""

import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rknet import model_spec as ms
from rknet import network

from oracles import looped_step_params


class TestParseModelName:
    def test_four_period_example(self):
        assert ms.parse_model_name("RKNet-3x2_4x1_2x5_1x1") == [(3, 2), (4, 1), (2, 5), (1, 1)]

    def test_minimal_model(self):
        assert ms.parse_model_name("RKNet-1x1") == [(1, 1)]

    def test_zero_stage_count_rejected(self):
        with pytest.raises(ms.ModelNameError):
            ms.parse_model_name("RKNet-0x2")

    @pytest.mark.parametrize("bad", [
        "RKNet-", "RKNet-3x", "RKNet-x2", "RKNet-3x2_", "Net-3x2",
        "RKNet-3x2__4x1", "RKNet-03x1", "RKNet-3x02", "rknet-3x1", "RKNet-3x2 ",
    ])
    def test_malformed_names(self, bad):
        with pytest.raises(ms.ModelNameError):
            ms.parse_model_name(bad)

    def test_unicode_multiplication_sign_accepted(self):
        assert ms.parse_model_name("RKNet-3×2_4×1") == [(3, 2), (4, 1)]

    def test_erk_irk_prefixes(self):
        assert ms.parse_model_name("ERKNet-3x1_3x1") == [(3, 1), (3, 1)]
        assert ms.parse_model_name("IRKNet-5x1_5x1_5x1") == [(5, 1)] * 3
        assert ms.name_kind_hint("ERKNet-3x1") == "erk"
        assert ms.name_kind_hint("IRKNet-3x1") == "irk"
        assert ms.name_kind_hint("RKNet-3x1") is None


class TestRenderModelName:
    def test_three_period_erk(self):
        assert ms.render_model_name([(3, 1), (3, 1), (3, 1)]) == "RKNet-3x1_3x1_3x1"

    def test_table2_irk_shape(self):
        assert ms.render_model_name([(5, 1), (5, 1), (5, 1)]) == "RKNet-5x1_5x1_5x1"

    def test_ascii_output(self):
        spec = ms.ModelSpec([ms.PeriodSpec(s=3, r=2, k=4)])
        assert "×" not in ms.render_model_name(spec)

    @settings(max_examples=100)
    @given(st.lists(st.tuples(st.integers(1, 99), st.integers(1, 99)), min_size=1, max_size=6))
    def test_parse_render_roundtrip(self, pairs):
        assert ms.parse_model_name(ms.render_model_name(pairs)) == list(pairs)

    @pytest.mark.parametrize("name", ["RKNet-1x1", "RKNet-3x2_4x1_2x5_1x1", "RKNet-12x34"])
    def test_render_parse_is_identity_on_canonical_names(self, name):
        assert ms.render_model_name(ms.parse_model_name(name)) == name


def rules_broken(build):
    """Rule names of the InvalidSpecError that build() raises, in order."""
    with pytest.raises(ms.InvalidSpecError) as err:
        build()
    return [v.rule for v in err.value.violations]


class TestValidateSpec:
    """The field, range and construction-rule checks a ModelSpec makes when it is made."""

    def test_irk_single_stage_cites_rule_3(self):
        assert rules_broken(lambda: ms.ModelSpec([ms.PeriodSpec(s=1, r=1, k=8, kind="irk")],
                                                 input_shape=(3, 16, 16))) == ["IRK Rule 3"]

    def test_erk_channel_arithmetic_ok(self):
        spec = ms.ModelSpec([ms.PeriodSpec(s=2, r=1, k=12, m=2)], input_shape=(3, 32, 32))
        assert spec.periods[0].channels == 24

    def test_six_periods_on_32_input_underflow(self):
        with pytest.raises(ms.InvalidSpecError, match="underflow") as err:
            ms.ModelSpec([ms.PeriodSpec(s=1, r=1, k=4) for _ in range(6)],
                         input_shape=(3, 32, 32))
        assert [v.rule for v in err.value.violations] == ["dimension principle"]

    def test_five_periods_on_32_input_ok(self):
        ms.ModelSpec([ms.PeriodSpec(s=1, r=1, k=4) for _ in range(5)], input_shape=(3, 32, 32))

    def test_odd_spatial_dims_at_transition(self):
        # 18 -> 9 is fine, but 9x9 cannot be halved again
        with pytest.raises(ms.InvalidSpecError, match="even") as err:
            ms.ModelSpec([ms.PeriodSpec(s=1, r=1, k=4) for _ in range(3)],
                         input_shape=(3, 18, 18))
        assert [v.rule for v in err.value.violations] == ["dimension principle"]
        ms.ModelSpec([ms.PeriodSpec(s=1, r=1, k=4), ms.PeriodSpec(s=1, r=1, k=4)],
                     input_shape=(3, 18, 18))

    def test_time_channel_requires_single_stage(self):
        assert rules_broken(lambda: ms.ModelSpec(
            [ms.PeriodSpec(s=2, r=1, k=4, kind="time_channel")],
            input_shape=(3, 16, 16))) == ["time-channel construction"]

    def test_every_violation_cites_exactly_one_rule(self):
        # one error lists every broken rule, each violation citing one
        cases = [
            ([ms.PeriodSpec(s=1, r=1, k=8, kind="irk")], (3, 16, 16), ["IRK Rule 3"]),
            ([ms.PeriodSpec(s=1, r=1, k=4)] * 6, (3, 32, 32), ["dimension principle"]),
            ([ms.PeriodSpec(s=3, r=1, k=4, m=2, kind="irk")], (3, 16, 16), ["IRK Rule 1"]),
            ([ms.PeriodSpec(s=1, r=1, k=4, m=2, kind="irk"),
              ms.PeriodSpec(s=2, r=1, k=4, kind="time_channel")], (3, 2, 2),
             ["IRK Rule 3", "IRK Rule 1", "time-channel construction", "dimension principle"]),
            ([ms.PeriodSpec(s=1, r=1, k=1, attentional_transition=True),
              ms.PeriodSpec(s=1, r=1, k=1)], (3, 8, 8), ["attentional transition"]),
        ]
        for periods, input_shape, rules in cases:
            with pytest.raises(ms.InvalidSpecError) as err:
                ms.ModelSpec(periods, input_shape=input_shape)
            assert [v.rule for v in err.value.violations] == rules
            for v in err.value.violations:
                assert v.rule and "," not in v.rule
                assert str(v).startswith(f"[{v.rule}]")
                assert str(v) in str(err.value)

    def test_non_positive_fields_rejected_at_construction(self):
        # every count is read by as_count: a value below 1 is a ConfigError keyed by its field
        period = ms.PeriodSpec(s=1, r=1, k=4)
        counts = [
            ("s", lambda: ms.PeriodSpec(s=0, r=1, k=4)),
            ("r", lambda: ms.PeriodSpec(s=1, r=0, k=4)),
            ("k", lambda: ms.PeriodSpec(s=1, r=1, k=-3)),
            ("k", lambda: ms.PeriodSpec(s=1, r=1, k=0)),
            ("m", lambda: ms.PeriodSpec(s=1, r=1, k=4, m=0)),
            ("num_classes", lambda: ms.ModelSpec([period], num_classes=0)),
            ("input_shape", lambda: ms.ModelSpec([period], input_shape=(3, 0, 8))),
            ("input_shape", lambda: ms.ModelSpec([period], input_shape=(0, 8, 8))),
        ]
        for key, build in counts:
            with pytest.raises(ms.ConfigError) as err:
                build()
            assert err.value.key == key
            assert err.value.reason.startswith("expected an integer of at least 1, got ")
        for key, build in [("periods", lambda: ms.ModelSpec([])),
                           ("input_shape", lambda: ms.ModelSpec([period], input_shape=(8, 8)))]:
            with pytest.raises(ms.ConfigError) as err:
                build()
            assert err.value.key == key

    @pytest.mark.parametrize("cls,kwargs", [
        (ms.ModelSpec, {"input_shape": (3, 8.7, 8)}),
        (ms.ModelSpec, {"input_shape": "388"}),
        (ms.ModelSpec, {"multiscale": "false"}),
        (ms.ModelSpec, {"num_classes": 2.5}),
        (ms.PeriodSpec, {"bottleneck": "false"}),
        (ms.PeriodSpec, {"k": True}),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else repr(v))
    def test_wrong_types_rejected_at_construction(self, cls, kwargs):
        valid = {"periods": [ms.PeriodSpec(s=1, r=1, k=4)]} if cls is ms.ModelSpec else \
            {"s": 1, "r": 1, "k": 4}
        with pytest.raises(ms.ConfigError):
            cls(**{**valid, **kwargs})

    def test_integral_and_numpy_numbers_read_as_int(self):
        p = ms.PeriodSpec(s=np.int64(1), r=np.uint8(2), k=4.0, kind="Time-Channel")
        assert (p.s, p.r, p.k, p.kind) == (1, 2, 4, "time_channel")
        assert all(type(v) is int for v in (p.s, p.r, p.k))
        assert ms.ModelSpec([p], input_shape=[3, 8.0, np.int32(8)]).input_shape == (3, 8, 8)


class TestConvertDensenet:
    def test_depth12_k12_channels24(self):
        spec = ms.convert_densenet([12], 12, [24])
        p = spec.periods[0]
        assert (p.m, p.s, p.r, p.kind) == (2, 6, 1, "erk")

    def test_channels_not_multiple_of_k_cites_rule_1(self):
        assert rules_broken(lambda: ms.convert_densenet([12], 12, [25])) == ["ERK Rule 1"]

    def test_depth_not_multiple_of_m_cites_rule_3(self):
        assert rules_broken(lambda: ms.convert_densenet([7], 12, [24])) == ["ERK Rule 3"]

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="depths"):
            ms.convert_densenet([12, 12], 12, [24])

    @settings(max_examples=50)
    @given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=3),
           st.integers(1, 16))
    def test_output_always_validates(self, blocks, k):
        depths = [m * s for m, s in blocks]
        channels = [m * k for m, s in blocks]
        spec = ms.convert_densenet(depths, k, channels)
        assert [p.m * p.s for p in spec.periods] == depths


class TestConvertCliquenet:
    def test_table2_shape(self):
        spec = ms.convert_cliquenet([5, 5, 5], 80)
        assert ms.render_model_name(spec) == "RKNet-5x1_5x1_5x1"
        assert all(p.kind == "irk" and p.k == 80 and p.channels == 80 for p in spec.periods)

    def test_single_growth_block_cites_rule_3(self):
        assert rules_broken(lambda: ms.convert_cliquenet([1], 36)) == ["IRK Rule 3"]

    def test_table1_shape(self):
        spec = ms.convert_cliquenet([3, 3, 3], 36)
        assert ms.render_model_name(spec) == "RKNet-3x1_3x1_3x1"


class TestCountParameters:
    CONFIGS = [
        {"name": "IRKNet-2x1_2x1", "k": 12, "input_shape": [3, 16, 16], "num_classes": 4},
        {"name": "ERKNet-3x1", "k": 8, "input_shape": [3, 16, 16], "num_classes": 4},
        {"name": "ERKNet-2x2_3x1", "k": 6, "m": [2, 1], "input_shape": [3, 16, 16],
         "num_classes": 4, "bottleneck": True},
        {"name": "IRKNet-3x1_3x1", "k": 10, "input_shape": [3, 32, 32],
         "bottleneck": True, "attentional_transition": True, "multiscale": True},
        {"name": "RKNet-1x4", "kind": "time_channel", "k": 8, "m": 2,
         "input_shape": [3, 16, 16], "num_classes": 4},
        {"name": "RKNet-2x3_1x2", "kind": ["erk", "time_channel"], "k": 6, "m": 2,
         "input_shape": [3, 16, 16], "num_classes": 4, "share_weights": True},
        {"name": "RKNet-1x2_1x2", "kind": "time_channel", "k": 8, "m": 2,
         "input_shape": [3, 16, 16], "num_classes": 4, "bottleneck": True,
         "attentional_transition": True, "multiscale": True},
    ]

    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c["name"])
    def test_matches_built_model_exactly(self, cfg):
        spec = ms.spec_from_config(cfg)
        model = network.build_model(spec, seed=0)
        assert ms.count_parameters(spec) == sum(p.value.size for p in model.parameters())

    def test_conv_kernel_count_is_product_of_dims(self):
        spec = ms.spec_from_config({"name": "IRKNet-2x1_2x1", "k": 4,
                                    "input_shape": [3, 16, 16], "num_classes": 4})
        model = network.build_model(spec, seed=0)
        w = model.store.params["transition0.conv.w"]
        assert w.value.size == 4 * 4 * 1 * 1

    def test_doubling_k_strictly_increases(self):
        small = ms.ModelSpec([ms.PeriodSpec(s=3, r=2, k=8, m=2)], input_shape=(3, 16, 16))
        big = ms.ModelSpec([ms.PeriodSpec(s=3, r=2, k=16, m=2)], input_shape=(3, 16, 16))
        assert ms.count_parameters(big) > ms.count_parameters(small)

    @pytest.mark.parametrize("kind", ms.KINDS)
    @pytest.mark.parametrize("bottleneck", [False, True])
    def test_closed_form_matches_unit_by_unit_sum(self, kind, bottleneck):
        # the time plane is the time_channel kind's extra conv input
        for s, m, k in itertools.product([1, 2, 3, 7], [1, 2, 5], [1, 4, 12]):
            p = ms.PeriodSpec(s=s, r=1, k=k, m=m, kind=kind, bottleneck=bottleneck)
            assert ms._step_params(p) == looped_step_params(p)

    def test_huge_stage_count_counts_fast(self):
        n = 9999999
        spec = ms.spec_from_config({"name": f"RKNet-{n}x1"})
        start = time.perf_counter()
        count = ms.count_parameters(spec)
        assert time.perf_counter() - start < 0.05
        # unit t sees 12t channels: BN 2*12t plus a 3x3 conv 9*12t*12
        units = 110 * 12 * n * (n + 1) // 2
        assert count == 3 * 12 * 9 + units + 2 * 12 + 12 * 10 + 10


class TestConfigDocuments:
    def test_roundtrip(self):
        cfg = {"name": "RKNet-2x2_3x1", "kind": ["erk", "irk"], "k": [6, 9], "m": [2, 1],
               "bottleneck": [True, False], "attentional_transition": [False, True],
               "multiscale": True, "num_classes": 7, "input_shape": [3, 16, 16],
               "share_weights": False}
        spec = ms.spec_from_config(cfg)
        again = ms.spec_from_config(ms.spec_to_config(spec))
        assert [(p.s, p.r, p.k, p.m, p.kind, p.bottleneck, p.attentional_transition)
                for p in spec.periods] == \
               [(p.s, p.r, p.k, p.m, p.kind, p.bottleneck, p.attentional_transition)
                for p in again.periods]
        assert (spec.multiscale, spec.num_classes, spec.input_shape) == \
               (again.multiscale, again.num_classes, again.input_shape)

    def test_name_prefix_sets_default_kind(self):
        spec = ms.spec_from_config({"name": "IRKNet-2x1", "k": 4, "input_shape": [3, 16, 16]})
        assert spec.periods[0].kind == "irk"

    def test_defaults_are_the_period_specs_own(self):
        p = ms.PeriodSpec(s=1, r=1)
        assert (p.k, p.kind) == (12, "erk")
        assert ms.spec_from_config({"name": "RKNet-1x1"}).periods == [p]

    def test_config_keys_are_the_spec_fields(self):
        # a field added to PeriodSpec or ModelSpec reaches every checkpoint's __config__
        spec = ms.spec_from_config({"name": "RKNet-2x1_1x1"})
        assert set(ms.spec_to_config(spec)) == {"name", *ms._PERIOD_KEYS, *ms._MODEL_KEYS}

    def test_per_period_list_length_checked(self):
        with pytest.raises(ms.ConfigError, match="per-period"):
            ms.spec_from_config({"name": "RKNet-2x1_2x1", "k": [4, 4, 4]})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ms.ConfigError, match="kind"):
            ms.spec_from_config({"name": "RKNet-2x1", "kind": "banana"})

    def test_missing_name_rejected(self):
        with pytest.raises(ms.ConfigError, match="name"):
            ms.spec_from_config({"k": 12})
