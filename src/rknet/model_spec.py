"""Architecture descriptions: the ``RKNet-sxr_...`` naming scheme, the
dense/clique construction rules, conversions from DenseNet and CliqueNet
layouts, and analytical parameter counting.

A model is a sequence of periods.  Each period runs ``r`` time-steps of one
method kind (``erk``, ``irk``, or ``time_channel``) at a fixed state width:
``m * k`` channels for erk/time_channel periods and ``k`` channels for irk
periods.  Extras (growth rate, bottleneck, attention, multiscale) live in the
config file, not the name.

A ``ModelSpec`` obeys the construction rules from the moment it exists: after
reading its fields and checking their ranges, its constructor raises one
``InvalidSpecError`` that lists every broken rule (IRK Rules 1 and 3, the
one-stage time-channel form, the attentional gate's width, the dimension
principle).  ``convert_densenet`` raises the same error for ERK Rules 1 and 3,
which constrain the DenseNet layout rather than the spec.
"""

import json
import math
import re
from dataclasses import dataclass, fields
from numbers import Integral, Real

KINDS = ("erk", "irk", "time_channel")

# grammar: name = "RKNet-" term {"_" term} ; term = int "x" int ; int = nonzero-digit {digit}
# the unicode multiplication sign is accepted on input; output is ASCII.
_NAME_RE = re.compile(r"^(?:E|I)?RKNet-(?P<terms>[0-9]+[x×][0-9]+(?:_[0-9]+[x×][0-9]+)*)$")
_INT_RE = re.compile(r"^[1-9][0-9]*$")


class ModelNameError(ValueError):
    """Malformed or out-of-range architecture name."""


class ConfigError(ValueError):
    """Malformed config document or training setting; ``key`` names the setting at fault."""

    def __init__(self, message, key=None):
        super().__init__(message if key is None else f"config key {key!r}: {message}")
        self.key, self.reason = key, message


class InvalidSpecError(ConfigError):
    """An architecture that breaks construction rules; ``violations`` lists every one."""

    def __init__(self, violations):
        super().__init__("invalid model spec: " + "; ".join(map(str, violations)))
        self.violations = violations


@dataclass
class Violation:
    rule: str
    message: str

    def __str__(self):
        return f"[{self.rule}] {self.message}"


@dataclass
class PeriodSpec:
    """One period: s stages per step, r time-steps, growth rate k, m growths per stage."""

    s: int
    r: int
    k: int = 12
    m: int = 1
    kind: str = "erk"
    bottleneck: bool = False
    attentional_transition: bool = False

    def __post_init__(self):
        read_fields(self, {int: as_count, str: as_kind, bool: as_flag})

    @property
    def channels(self):
        """State width of the period (m*k for erk/time_channel, k for irk)."""
        return self.k if self.kind == "irk" else self.m * self.k

    @property
    def bottleneck_width(self):
        """1x1 reduction width: k for irk periods, 4k otherwise, and 0 without a bottleneck."""
        if not self.bottleneck:
            return 0
        return self.k if self.kind == "irk" else 4 * self.k


@dataclass
class ModelSpec:
    """Full classifier description: periods plus input/output wiring.

    The transition after period p is attentional iff
    ``periods[p].attentional_transition`` is set (the last period has no
    trailing transition, so its flag is unused).
    """

    periods: list
    multiscale: bool = False
    num_classes: int = 10
    input_shape: tuple = (3, 32, 32)
    share_weights: bool = False

    def __post_init__(self):
        read_fields(self, {list: _periods, bool: as_flag, int: as_count,
                           tuple: as_tuple(as_count)})
        if len(self.input_shape) != 3:
            raise ConfigError(f"expected (C, H, W), got {self.input_shape}", "input_shape")
        if violations := _rule_violations(self):
            raise InvalidSpecError(violations)


def parse_model_name(name):
    """Parse ``RKNet-sxr_sxr_...`` into its list of (s, r) pairs."""
    m = _NAME_RE.match(name)
    if m is None:
        raise ModelNameError(f"malformed model name {name!r}; expected RKNet-<s>x<r>[_<s>x<r>...]")
    pairs = []
    for term in m.group("terms").split("_"):
        s_txt, r_txt = re.split(r"[x×]", term)
        if not (_INT_RE.match(s_txt) and _INT_RE.match(r_txt)):
            raise ModelNameError(
                f"model name {name!r}: stage and step counts must be positive "
                f"integers without leading zeros, got term {term!r}")
        pairs.append((int(s_txt), int(r_txt)))
    return pairs


def name_kind_hint(name):
    """'erk' / 'irk' default implied by an ERKNet-/IRKNet- prefix, else None."""
    if name.startswith("ERKNet-"):
        return "erk"
    if name.startswith("IRKNet-"):
        return "irk"
    return None


def render_model_name(spec):
    """ASCII name for a ModelSpec or an iterable of (s, r) pairs."""
    if isinstance(spec, ModelSpec):
        pairs = [(p.s, p.r) for p in spec.periods]
    else:
        pairs = [(int(s), int(r)) for s, r in spec]
    for s, r in pairs:
        if s < 1 or r < 1:
            raise ModelNameError(f"cannot render non-positive term ({s}, {r})")
    return "RKNet-" + "_".join(f"{s}x{r}" for s, r in pairs)


def _rule_violations(spec):
    """Every construction rule the fields of spec break, in period order."""
    violations = []
    for idx, p in enumerate(spec.periods):
        where = f"period {idx + 1}"
        if p.kind == "irk":
            if p.s <= 1:
                violations.append(Violation(
                    "IRK Rule 3",
                    f"{where}: stage count must be larger than 1 for alternate "
                    f"updating, got s={p.s}"))
            if p.m != 1:
                violations.append(Violation(
                    "IRK Rule 1",
                    f"{where}: irk state width is the growth rate itself (m is "
                    f"fixed to 1), got m={p.m}"))
        if p.kind == "time_channel" and p.s != 1:
            violations.append(Violation(
                "time-channel construction",
                f"{where}: time-channel steps use the one-stage (Euler) form, got s={p.s}"))
        if (p.attentional_transition and idx + 1 < len(spec.periods)
                and (width := spec.periods[idx + 1].channels) < 2):
            violations.append(Violation(
                "attentional transition",
                f"transition after {where}: the attentional gate needs at least 2 "
                f"channels, the next period has {width}"))
    h, w = spec.input_shape[1], spec.input_shape[2]
    for idx in range(len(spec.periods)):
        if h < 2 or w < 2:
            violations.append(Violation(
                "dimension principle",
                f"period {idx + 1}: spatial dims underflow ({h}x{w}); each period "
                f"needs at least 2x2 feature maps"))
            break
        if idx < len(spec.periods) - 1 and (h % 2 or w % 2):
            violations.append(Violation(
                "dimension principle",
                f"transition after period {idx + 1}: spatial dims {h}x{w} must be "
                f"even to halve"))
            break
        h, w = h // 2, w // 2
    return violations


def _growth_rate(value):
    try:
        return as_count(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"growth_rate: {exc}", "growth_rate") from None


def convert_densenet(block_depths, growth_rate, input_channels_per_block):
    """Reinterpret a DenseNet layout as erk periods (r=1 each).

    Per block: the input width must be m*k for integer m (Rule 1) and the
    depth must be m*s for integer s (Rule 3).
    """
    if len(block_depths) != len(input_channels_per_block):
        raise ValueError(
            f"convert_densenet: {len(block_depths)} block depths but "
            f"{len(input_channels_per_block)} input widths")
    k = _growth_rate(growth_rate)
    periods = []
    for idx, (depth, ch) in enumerate(zip(block_depths, input_channels_per_block)):
        where = f"block {idx + 1}"
        if ch <= 0 or ch % k:
            raise InvalidSpecError([Violation(
                "ERK Rule 1",
                f"{where}: input width {ch} is not of the form m*k for growth rate {k}")])
        m = ch // k
        if depth <= 0 or depth % m:
            raise InvalidSpecError([Violation(
                "ERK Rule 3",
                f"{where}: depth {depth} is not m*s growths for m={m}")])
        periods.append(PeriodSpec(s=depth // m, r=1, k=k, m=m, kind="erk"))
    return ModelSpec(periods)


def convert_cliquenet(stage1_layers, growth_rate):
    """Reinterpret a CliqueNet layout as irk periods (r=1 each)."""
    k = _growth_rate(growth_rate)
    periods = [PeriodSpec(s=layers, r=1, k=k, m=1, kind="irk") for layers in stage1_layers]
    return ModelSpec(periods)


# ---------------------------------------------------------------------------
# Analytical parameter counting (must match the built model exactly; BN
# running statistics are not trained and therefore not counted).

def _growth_params(in_ch, k, bw, time_plane=False):
    # BN(gamma+beta) over the feature channels; the conv also sees the raw
    # time plane when present.  A bottleneck width bw of 0 means no bottleneck.
    conv_in = in_ch + (1 if time_plane else 0)
    if bw:
        return 2 * in_ch + conv_in * bw + 2 * bw + 9 * bw * k
    return 2 * in_ch + 9 * conv_in * k


def _growth_run(in_ch, k, n, bw, time_plane=False):
    """Parameters of n growth units whose input widens by k from in_ch.

    ``_growth_params`` is affine in its input width, so unit t (from 0) counts
    the first unit's parameters plus t times the difference between the first
    two units'; the sum over t is closed-form.
    """
    first = _growth_params(in_ch, k, bw, time_plane)
    step = _growth_params(in_ch + k, k, bw, time_plane) - first
    return n * first + step * (n * (n - 1) // 2)


def _step_params(p):
    k, s, m, bw = p.k, p.s, p.m, p.bottleneck_width
    if p.kind == "erk":
        return _growth_run(p.channels, k, m * s, bw)
    if p.kind == "irk":
        stage1 = _growth_run(k, k, s, bw)
        stage2 = s * _growth_params((s - 1) * k, k, bw)
        return stage1 + stage2
    # time_channel: m growths whose convs also see the time plane
    return _growth_run(p.channels, k, m, bw, time_plane=True)


def _transition_params(in_ch, out_ch, attentional):
    n = 2 * in_ch + in_ch * out_ch
    if attentional:
        hidden = out_ch // 2
        n += out_ch * hidden + hidden + hidden * out_ch + out_ch
    return n


def period_parameter_counts(spec):
    """Trainable parameters inside each period's step blocks."""
    counts = []
    for p in spec.periods:
        per_step = _step_params(p)
        n = per_step if spec.share_weights else per_step * p.r
        if p.kind == "time_channel":
            n += p.r  # one trainable step-size scalar per time-step
        counts.append(n)
    return counts


def count_parameters(spec):
    """Trainable parameter total implied by the spec's layer shapes."""
    total = spec.input_shape[0] * spec.periods[0].channels * 9
    total += sum(period_parameter_counts(spec))
    for idx, p in enumerate(spec.periods[:-1]):
        total += _transition_params(p.channels, spec.periods[idx + 1].channels,
                                    p.attentional_transition)
    if spec.multiscale:
        feat = sum(p.channels for p in spec.periods)
    else:
        feat = spec.periods[-1].channels
        total += 2 * feat  # postprocessor BN
    total += feat * spec.num_classes + spec.num_classes
    return total


# ---------------------------------------------------------------------------
# Config documents

def read_fields(obj, readers):
    """Read each field of dataclass obj by readers[its name], else readers[its type].

    None stays where it is the default."""
    for f in fields(obj):
        if (value := getattr(obj, f.name)) is not None or f.default is not None:
            try:
                setattr(obj, f.name, (readers.get(f.name) or readers[f.type])(value))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(str(exc), f.name) from None


def as_flag(value):
    """A JSON boolean; bool() would read the string "false" as true."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def as_integer(value):
    """A JSON or numpy number with an integral value; int() would truncate 2.7 to 2."""
    integral = isinstance(value, Integral) or isinstance(value, Real) and float(value).is_integer()
    if isinstance(value, bool) or not integral:
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def as_count(value):
    """A count (stages, steps, channels, classes, samples): an as_integer value of at least 1."""
    if (count := as_integer(value)) < 1:
        raise ValueError(f"expected an integer of at least 1, got {value!r}")
    return count


def as_number(value):
    """A finite JSON or numpy real number, as a float; json.load reads NaN and Infinity."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def as_tuple(read):
    """Reader of a JSON list (or tuple) whose every element is read by read."""
    def read_all(value):
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a list, got {value!r}")
        return tuple(read(v) for v in value)
    return read_all


def _periods(value):
    if not isinstance(value, (list, tuple)) or not all(isinstance(p, PeriodSpec) for p in value):
        raise TypeError(f"expected a list of PeriodSpec, got {value!r}")
    if not value:
        raise ValueError("expected at least one period")
    return list(value)


# config keys are field names; s and r come from the model name
_PERIOD_KEYS = [f.name for f in fields(PeriodSpec) if f.name not in ("s", "r")]
_MODEL_KEYS = [f.name for f in fields(ModelSpec) if f.name != "periods"]
_CONFIG_KEYS = {"name", "train", *_PERIOD_KEYS, *_MODEL_KEYS}


def _per_period(value, n, key):
    if isinstance(value, list):
        if len(value) != n:
            raise ConfigError(f"expected {n} per-period values, got {len(value)}", key)
        return value
    return [value] * n


def spec_from_config(cfg):
    """Build a ModelSpec from a config dict (see the model config JSON schema)."""
    if "name" not in cfg:
        raise ConfigError("config needs a 'name' key")
    name = cfg["name"]
    if not isinstance(name, str):
        raise ConfigError(f"config key 'name' must be a string, got {name!r}")
    unknown = sorted(set(cfg) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}; known: {sorted(_CONFIG_KEYS)}")
    pairs = parse_model_name(name)
    if "kind" not in cfg and (hint := name_kind_hint(name)):
        cfg = {**cfg, "kind": hint}
    columns = {key: _per_period(cfg[key], len(pairs), key) for key in _PERIOD_KEYS if key in cfg}
    periods = [PeriodSpec(s, r, **{key: values[i] for key, values in columns.items()})
               for i, (s, r) in enumerate(pairs)]
    return ModelSpec(periods, **{key: cfg[key] for key in _MODEL_KEYS if key in cfg})


def as_kind(value):
    """A period kind; "time-channel", "timechannel" and "time" read as time_channel."""
    v = str(value).lower().replace("-", "_")
    if v in ("timechannel", "time"):
        v = "time_channel"
    if v not in KINDS:
        raise ValueError(f"unknown period kind {value!r}; expected one of {KINDS}")
    return v


def spec_to_config(spec):
    """Config dict that round-trips through spec_from_config: the name and every config key."""
    return {"name": render_model_name(spec),
            **{key: [getattr(p, key) for p in spec.periods] for key in _PERIOD_KEYS},
            **{key: getattr(spec, key) for key in _MODEL_KEYS}}


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
            raise ConfigError(f"config {path}: invalid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path}: expected a JSON object")
    return cfg
