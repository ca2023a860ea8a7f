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
        for key, minimum in _MINIMUMS.items():
            value = getattr(self, _KEY_MAP[key][0])
            if value < minimum:
                raise ConfigError(f"{key} must be >= {minimum}, got {value}")
        for key in _FLOAT_LISTS:
            values = parse_float_list(getattr(self, _KEY_MAP[key][0]))
            if key in _NONEMPTY_LISTS and not values:
                raise ConfigError(f"{key} must hold at least one value")
            if key != _INF_LIST and math.inf in values:
                raise ConfigError(f"{key} must be finite (only {_INF_LIST} takes inf)")


_KEY_MAP = {
    "experiment": ("experiment", str),
    "seed": ("seed", _parse_int),
    "trials": ("n_trials", _parse_int),
    "out": ("output_path", str),
    "modem.n_subcarriers": ("modem_n_subcarriers", _parse_int),
    "modem.wavelet": ("modem_wavelet", str),
    "modem.levels": ("modem_levels", _parse_int),
    "modem.oversampling": ("modem_oversampling", _parse_int),
    "modem.cp_fraction": ("modem_cp_fraction", _parse_float),
    "modem.constellation": ("modem_constellation", str),
    "modem.wpm_interp": ("modem_wpm_interp", str),
    "modem.sc_precoder": ("modem_sc_precoder", str),
    "modem.tx_rolloff": ("modem_tx_rolloff", _parse_float),
    "papr.thresholds_db": ("papr_thresholds_db", str),
    "evm.wavelet": ("evm_wavelet", str),
    "evm.oversampling": ("evm_oversampling", _parse_int),
    "evm.cutoffs": ("evm_cutoffs", str),
    "channel.profile": ("channel_profile", str),
    "channel.seed": ("channel_seed", _parse_int),
    "channel.taps": ("channel_taps", _parse_int),
    "channel.decay_db": ("channel_decay_db", _parse_float),
    "ber.ebn0_db": ("ber_ebn0_db", str),
    "ber.wpm_interp": ("ber_wpm_interp", str),
    "se.families": ("se_families", str),
    "se.dyadics": ("se_dyadics", _parse_int),
    "se.rc_rolloff": ("se_rc_rolloff", _parse_float),
    "se.cascade_iterations": ("se_cascade_iterations", _parse_int),
    "modgauss.sigma_t": ("mg_sigma_t", str),
    "modgauss.l_max": ("mg_l_max", _parse_int),
    "modgauss.grid_points": ("mg_grid_points", _parse_int),
    "modgauss.srrc_rolloffs": ("mg_srrc_rolloffs", str),
}

# Lower bound of each integer key that has one.  Below it a study would
# fail inside numpy (a negative generator seed, an empty grid) or math.log2
# instead of with a ConfigError.
_MINIMUMS = {
    "seed": 0,
    "trials": 0,
    "channel.seed": 0,
    "modem.n_subcarriers": 1,
    "modgauss.grid_points": 1,
}

# Every key holding a number list (read with parse_float_list).
_FLOAT_LISTS = ("papr.thresholds_db", "evm.cutoffs", "ber.ebn0_db",
                "modgauss.sigma_t", "modgauss.srrc_rolloffs")

# Number lists that are a study's table rows: empty, the study would write
# a CSV holding only its header.
_NONEMPTY_LISTS = ("papr.thresholds_db", "evm.cutoffs", "ber.ebn0_db")

# The one number list where inf means something: a noiseless Eb/N0 point.
_INF_LIST = "ber.ebn0_db"


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
        if key not in _KEY_MAP:
            raise ConfigError(f"unknown config key {key!r}")
        name, parser = _KEY_MAP[key]
        updates[name] = parser(text)
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
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int,)):
        return str(value)
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
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
