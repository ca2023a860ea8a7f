"""Flat key-value experiment configuration and CSV result tables.

Config files are plain text, one `dotted.key = value` per line, `#`
comments allowed.  Unknown keys are rejected so typos fail loudly.  Every
emitted CSV starts with a provenance header (config hash, seed, version)
and is byte-identical across reruns of the same (config, seed).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, NamedTuple

from .errors import ConfigError

TOOL_VERSION = "0.1.0"


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"cannot parse number from {text!r}") from None


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"cannot parse integer from {text!r}") from None


def _parse_finite(text: str) -> float:
    value = _parse_float(text)
    if not math.isfinite(value):
        raise ConfigError(f"{text.strip()!r} is not a finite number")
    return value


# Most values a start:stop:step range may hold.
MAX_RANGE_VALUES = 10**6


def parse_float_list(text: str) -> list[float]:
    """Comma list ('1,2,3') or range ('start:stop:step', stop inclusive).

    Every value is finite, except that a list item written `inf` (or
    `+inf`) is +inf; NaN and -inf are configuration errors.  So are a
    range of more than MAX_RANGE_VALUES values, found before any value is
    built, and a range whose step is too small to move its values.
    """
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range syntax is start:stop:step, got {text!r}")
        start, stop, step = (_parse_finite(p) for p in parts)
        if step <= 0:
            raise ConfigError("range step must be positive")
        # the value count, with the loop's 1e-12 slack, before any value
        if not (stop + 1e-12 - start) / step < MAX_RANGE_VALUES:
            raise ConfigError(
                f"range {text!r} holds more than {MAX_RANGE_VALUES} values"
            )
        values = []
        previous = None
        k = 0
        while True:
            v = start + k * step
            if v > stop + 1e-12:
                return values
            if v == previous:
                raise ConfigError(
                    f"range {text!r} repeats values: its step is below "
                    f"their resolution"
                )
            values.append(round(v, 12))
            previous = v
            k += 1
    out = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        out.append(math.inf if item.lower() in ("inf", "+inf") else _parse_finite(item))
    return out


def parse_str_list(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


@dataclass(frozen=True)
class ExperimentConfig:
    """Typed view of one experiment description.

    Defaults follow the reference configuration: QPSK, Haar level-9
    packets, 512 subcarriers, oversampling 4, guard interval 1/8, 10-path
    static fading with perfect channel knowledge.
    """

    experiment: str = ""
    seed: int = 20110223
    n_trials: int = 0          # 0 = per-experiment default
    output_path: str = ""

    modem_n_subcarriers: int = 512
    modem_wavelet: str = "haar"
    modem_levels: int = 0      # 0 = log2(n_subcarriers)
    modem_oversampling: int = 4
    modem_cp_fraction: float = 0.125
    modem_constellation: str = "qpsk"
    modem_wpm_interp: str = "fir"
    modem_sc_precoder: str = "wpt"
    modem_tx_rolloff: float = -1.0   # < 0 disables the shaping stage

    papr_thresholds_db: str = "2:14:0.25"

    evm_wavelet: str = "db10"
    evm_oversampling: int = 2
    evm_cutoffs: str = "0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0"

    channel_profile: str = "ten-path"
    channel_seed: int = 424242
    channel_taps: int = 10
    channel_decay_db: float = 3.0

    ber_ebn0_db: str = "0,2,4,6,8,10,12,14,16"
    ber_wpm_interp: str = "fft"

    se_families: str = "db10,sym8,coif3"
    se_dyadics: int = 2
    se_rc_rolloff: float = 0.22
    se_cascade_iterations: int = 8

    mg_sigma_t: str = "0.25,0.5,1.0"
    mg_l_max: int = 8
    mg_grid_points: int = 10000
    mg_srrc_rolloffs: str = "0.22,0.5"

    def __post_init__(self):
        for key, (name, _, rule) in SCHEMA.items():
            value = getattr(self, name)
            if rule is not None and not rule.check(value):
                raise ConfigError(f"{key} must be {rule.text}, got {value!r}")


class Rule(NamedTuple):
    """A bound on one key's value.  check(value) holds inside it; text ends
    "<key> must be <text>" in the ConfigError and fills the README's bounds
    column; edges are config texts on the bound and one step past it."""

    check: Callable[[Any], bool]
    text: str
    edges: tuple[str, ...]


def _at_least(minimum: int) -> Rule:
    return Rule(lambda v: v >= minimum, f">= {minimum}", (str(minimum), str(minimum - 1)))


def _number_list(items: str, item_ok, edges: tuple[str, ...], nonempty=True) -> Rule:
    """A parse_float_list text whose values all pass item_ok.  The lists that
    are a study's table rows are non-empty, or its CSV would be a header."""

    def check(text: str) -> bool:
        values = parse_float_list(text)
        return (bool(values) or not nonempty) and all(map(item_ok, values))

    return Rule(check, f"a {'non-empty ' * nonempty}list of {items}",
                edges + ("",) * nonempty)


_PRECODERS = Rule(lambda v: v in ("wpt", "dwt"), "wpt or dwt", ("wpt", "dwt", ""))
_DYADICS = Rule(lambda v: v in (0, 1, 2), "0, 1 or 2", ("0", "2", "-1", "3"))
_NUMBER = Rule(lambda v: not math.isnan(v), "a number", ("-inf", "inf", "nan"))
_NAMES = Rule(lambda text: bool(parse_str_list(text)), "a non-empty list of wavelet names",
              ("haar", ","))
_FINITE = ("finite numbers", math.isfinite, ("-1e308", "1e308", "inf"))
# inf is a noiseless Eb/N0 point, the one list where it means something
_EBN0 = ("finite numbers or inf", lambda v: v > -math.inf, ("-1e308", "inf", "-inf"))
_CUTOFFS = ("numbers in (0, 1]", lambda c: 0.0 < c <= 1.0,
            ("0", "5e-324", "1", "1.0000000000000002"))
_FINITE_LIST = _number_list(*_FINITE, nonempty=False)

# Every config key: its ExperimentConfig field, the parser of its file text
# and its rule, None where only a library class bounds the value.  A rule
# bounds one key alone, whichever study runs.  Rules across keys (the cyclic
# prefix against the channel memory, oversampling >= 1 + roll-off) and the
# bounds a library class checks itself (OfdmConfig, AwgnSpec,
# MultipathSpec.ten_path, ModifiedGaussianParams, make_filter,
# constellation) stay there.  Below its minimum a seed or size would fail
# inside numpy or math.log2 instead of with a ConfigError.
SCHEMA = {
    "experiment": ("experiment", str, None),
    "seed": ("seed", _parse_int, _at_least(0)),
    "trials": ("n_trials", _parse_int, _at_least(0)),
    "out": ("output_path", str, None),
    "modem.n_subcarriers": ("modem_n_subcarriers", _parse_int, _at_least(1)),
    "modem.wavelet": ("modem_wavelet", str, None),
    "modem.levels": ("modem_levels", _parse_int, None),
    "modem.oversampling": ("modem_oversampling", _parse_int, None),
    "modem.cp_fraction": ("modem_cp_fraction", _parse_float, None),
    "modem.constellation": ("modem_constellation", str, None),
    "modem.wpm_interp": ("modem_wpm_interp", str, None),
    "modem.sc_precoder": ("modem_sc_precoder", str, _PRECODERS),
    "modem.tx_rolloff": ("modem_tx_rolloff", _parse_float, _NUMBER),
    "papr.thresholds_db": ("papr_thresholds_db", str, _number_list(*_FINITE)),
    "evm.wavelet": ("evm_wavelet", str, None),
    "evm.oversampling": ("evm_oversampling", _parse_int, None),
    "evm.cutoffs": ("evm_cutoffs", str, _number_list(*_CUTOFFS)),
    "channel.profile": ("channel_profile", str, None),
    "channel.seed": ("channel_seed", _parse_int, _at_least(0)),
    "channel.taps": ("channel_taps", _parse_int, None),
    "channel.decay_db": ("channel_decay_db", _parse_float, None),
    "ber.ebn0_db": ("ber_ebn0_db", str, _number_list(*_EBN0)),
    "ber.wpm_interp": ("ber_wpm_interp", str, None),
    "se.families": ("se_families", str, _NAMES),
    "se.dyadics": ("se_dyadics", _parse_int, _DYADICS),
    "se.rc_rolloff": ("se_rc_rolloff", _parse_float, None),
    "se.cascade_iterations": ("se_cascade_iterations", _parse_int, None),
    "modgauss.sigma_t": ("mg_sigma_t", str, _FINITE_LIST),
    "modgauss.l_max": ("mg_l_max", _parse_int, None),
    "modgauss.grid_points": ("mg_grid_points", _parse_int, _at_least(1)),
    "modgauss.srrc_rolloffs": ("mg_srrc_rolloffs", str, _FINITE_LIST),
}


def read_config_file(path) -> dict:
    """Parse `key = value` lines into a raw string mapping."""
    raw = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, value = stripped.split("=", 1)
            raw[key.strip()] = value.strip()
    return raw


def config_from_mapping(raw: dict, base: ExperimentConfig | None = None) -> ExperimentConfig:
    cfg = base or ExperimentConfig()
    updates = {}
    for key, text in raw.items():
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        name, parse, _ = SCHEMA[key]
        updates[name] = parse(text)
    return replace(cfg, **updates)


def load_config(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    return config_from_mapping(read_config_file(path), base)


def canonical_dump(cfg: ExperimentConfig) -> str:
    """Stable one-line-per-field dump used for hashing and provenance.

    The output path is excluded: it does not affect any computed value.
    """
    pairs = []
    for f in sorted(fields(cfg), key=lambda f: f.name):
        if f.name == "output_path":
            continue
        pairs.append(f"{f.name}={getattr(cfg, f.name)}")
    return "\n".join(pairs) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_dump(cfg).encode("utf-8")).hexdigest()[:16]


def format_cell(value) -> str:
    """%.12g for a float (inf, -inf and nan spelled so), 1/0 for a bool."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


@dataclass
class ResultTable:
    """Rectangular experiment output with a provenance header."""

    columns: list
    rows: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    def add_row(self, *values):
        if len(values) != len(self.columns):
            raise ConfigError(
                f"row width {len(values)} != column count {len(self.columns)}"
            )
        self.rows.append(tuple(values))

    def column(self, name):
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def to_csv(self) -> str:
        lines = [f"# {key}={self.provenance[key]}" for key in sorted(self.provenance)]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(format_cell(v) for v in row))
        return "\n".join(lines) + "\n"

    def write(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv())


def provenance_for(cfg: ExperimentConfig, experiment: str) -> dict:
    return {
        "experiment": experiment,
        "config_sha256": config_hash(cfg),
        "seed": str(cfg.seed),
        "tool_version": TOOL_VERSION,
    }
