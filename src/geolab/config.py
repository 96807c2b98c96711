"""Run configuration: YAML in, validated dataclass out, lossless round trip."""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field

import yaml

from .charts import CHART_BUILDERS
from .errors import ConfigError

class _Loader(yaml.SafeLoader):
    """SafeLoader with YAML 1.2 floats: 1.1 reads ``1e-08`` (``json.dumps(1e-8)``) as a string."""


_Loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
    r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"), list("-+.0123456789"))


@dataclass
class RunConfig:
    """Everything one batch run needs; serialized verbatim into every report."""

    chart: str = "plane"
    chart_params: dict = field(default_factory=dict)
    n_nodes: int = 128
    seed: int = 0
    # penalty schedule
    penalty_r0: float = 2.0
    penalty_dr: float = 1.0
    penalty_stiffness: float = 1.0
    alpha: int = 0
    alpha_max: int | None = None        # set for continuation sweeps
    ell: float = 10.0
    k_radius: float = 0.0
    # descent
    grad_tol: float = 1e-8
    max_iter: int = 20000
    # find
    n_starts: int = 20
    winding_mix: str = "mixed"          # "contractible" | "winding" | "mixed"
    start_band: tuple = (0.0, 3.0)
    # sweep
    family: str = "auto"                # "latitudes" | "winding_band" | "concentric" | "auto"
    family_members: int = 33
    family_z_center: float = 5.0
    family_z_halfwidth: float = 1.0
    family_r_max: float = 1.5
    max_rounds: int = 6000
    argmax_grad_tol: float = 1e-3
    # analyze / verify
    loop_path: str | None = None
    m_max: int = 4
    n_samples: int = 100

    def validate(self) -> "RunConfig":
        # field types are strings under postponed annotations; a bool is no number
        types = {"int": (int,), "float": (int, float), "str": (str,), "dict": (dict,)}
        for name, spec in self.__dataclass_fields__.items():
            value = getattr(self, name)
            kind = spec.type.removesuffix(" | None")
            if kind not in types or (value is None and kind != spec.type):
                continue
            if isinstance(value, bool) or not isinstance(value, types[kind]):
                raise ConfigError(f"field {name!r}: must be {kind} (got {value!r})")
        band = self.start_band
        if not (isinstance(band, (list, tuple)) and len(band) == 2 and all(
                isinstance(b, (int, float)) and not isinstance(b, bool) for b in band)):
            raise ConfigError(f"field 'start_band': must be a pair of numbers (got {band!r})")
        if self.chart not in CHART_BUILDERS:
            raise ConfigError(
                f"field 'chart': unknown chart {self.chart!r} "
                f"(available: {sorted(CHART_BUILDERS)})"
            )
        try:
            CHART_BUILDERS[self.chart](**self.chart_params)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"field 'chart_params': {exc}")
        checks = [
            ("n_nodes", self.n_nodes >= 8, ">= 8"),
            ("penalty_r0", self.penalty_r0 > 0, "> 0"),
            ("penalty_dr", self.penalty_dr > 0, "> 0"),
            ("penalty_stiffness", self.penalty_stiffness > 0, "> 0"),
            ("alpha", self.alpha >= 0, ">= 0"),
            ("ell", self.ell > 0, "> 0"),
            ("k_radius", self.k_radius >= 0, ">= 0"),
            ("grad_tol", self.grad_tol > 0, "> 0"),
            ("max_iter", self.max_iter >= 1, ">= 1"),
            ("n_starts", self.n_starts >= 1, ">= 1"),
            ("family_members", self.family_members >= 3, "at least 3 members"),
            ("family_z_halfwidth", self.family_z_halfwidth >= 0, ">= 0"),
            ("family_r_max", self.family_r_max > 0, "> 0"),
            ("max_rounds", self.max_rounds >= 1, ">= 1"),
            ("argmax_grad_tol", self.argmax_grad_tol > 0, "> 0"),
            ("m_max", self.m_max >= 1, ">= 1"),
            ("n_samples", self.n_samples >= 1, ">= 1"),
            ("seed", self.seed >= 0, ">= 0"),
            ("start_band", band[0] <= band[1], "ordered, low <= high"),
            ("winding_mix", self.winding_mix in ("contractible", "winding", "mixed"),
             "one of contractible/winding/mixed"),
        ]
        if self.alpha_max is not None:
            checks.append(("alpha_max", self.alpha_max >= self.alpha, ">= alpha"))
        for name, ok, want in checks:
            if not ok:
                raise ConfigError(f"field {name!r}: must be {want} (got {getattr(self, name)})")
        return self

    def to_dict(self) -> dict:
        data = asdict(self)
        data["start_band"] = list(self.start_band)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("configuration must be a mapping")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        cfg = cls(**data)
        if isinstance(cfg.start_band, list):
            cfg.start_band = tuple(cfg.start_band)
        return cfg.validate()


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            data = yaml.load(fh, Loader=_Loader)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
        raise ConfigError(f"YAML parse error in {path}{where}: {exc}")
    if data is None:
        data = {}
    return RunConfig.from_dict(data)
