"""Seeded inputs and the operation lists of the three workloads.

The seed only draws inputs that leave the number of enumerated words
unchanged, so every seed does the same amount of work:

* exponents inside ranges where every construction's claims hold (the
  word walk does not depend on the exponent);
* a two-generator target angle in the closed fundamental domain (the
  walk does not depend on the target either).

Configs are written into the run directory; the program only ever reads
those generated files.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

EX1_EXPONENT = (0.45, 0.6)      # inside the admissible band of configs/example1.json
EX3_EXPONENT = (0.7, 0.9)
EX2_EXPONENT = (0.38, 0.45)     # above the kernel bracket [0.362, 0.372]
TARGET_MARGIN = math.radians(1.0)

# Reduced depths of the smoke mode: the same harness path in seconds.
SMOKE_DEPTH = 4
SMOKE_EX2 = {"depth": 6, "decay_depths": [4, 5, 6], "probe_depths": [5, 6]}
SMOKE_EX3 = {"depth": 5, "identity_depth": 4}
SMOKE_EX1 = {"depth": 5, "weak_depth": 4, "sequence_count": 4}
FULL_EX1 = {"depth": 7}


@dataclass
class CliOp:
    """One ``kleinian`` command on one generated config."""

    name: str
    command: str
    config: str            # generated config path
    template: str          # shipped config it was generated from
    depth: int | None      # --depth override (smoke mode only)

    def argv(self, out_dir: Path, depth: int | None = None) -> list[str]:
        args = [self.command, "--config", self.config, "--out", str(out_dir)]
        depth = self.depth if depth is None else depth
        if depth is not None:
            args += ["--depth", str(depth)]
        return args


@dataclass
class Inputs:
    values: dict = field(default_factory=dict)    # every seeded value, for the record
    configs: dict = field(default_factory=dict)   # template name -> generated path
    cli_ops: list = field(default_factory=list)
    lib_params: dict = field(default_factory=dict)


def _stream(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def _domain_angle(rng: random.Random, pairs: list[dict]) -> float:
    """Uniform angle in the closed fundamental domain of arc pairs (S^1 configs)."""
    arcs = []
    for pair in pairs:
        for side in ("plus", "minus"):
            disc = pair[side]
            arcs.append((disc["angle"], 2.0 * math.asin(disc["radius"] / 2.0)))
    while True:
        theta = rng.uniform(0.0, 2.0 * math.pi)
        if all(abs(math.remainder(theta - center, 2.0 * math.pi)) > half + TARGET_MARGIN
               for center, half in arcs):
            return theta


def make_inputs(seed: int, root: Path, run_dir: Path, smoke: bool) -> Inputs:
    configs_dir = root / "configs"
    gen_dir = run_dir / "inputs"
    gen_dir.mkdir(parents=True, exist_ok=True)
    inputs = Inputs()

    def generate(name: str, edit) -> None:
        doc = json.loads((configs_dir / f"{name}.json").read_text())
        edit(doc)
        path = gen_dir / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        inputs.configs[name] = str(path)

    s1 = _stream(seed, "example1").uniform(*EX1_EXPONENT)
    s3 = _stream(seed, "example3").uniform(*EX3_EXPONENT)
    s2 = _stream(seed, "example2").uniform(*EX2_EXPONENT)
    two_gen = json.loads((configs_dir / "two_generator.json").read_text())
    theta = _domain_angle(_stream(seed, "two_generator"), two_gen["group"]["pairs"])
    inputs.values = {"example1_exponent": s1, "example3_exponent": s3,
                     "example2_kernel_exponent": s2, "two_generator_target_angle": theta}

    def set_exponent(s):
        def edit(doc):
            # The certificate is built from the params value, so both move.
            doc["exponent"] = s
            doc["group"].setdefault("params", {})["exponent"] = s
        return edit

    generate("example1", set_exponent(s1))
    generate("example2", lambda doc: None)
    generate("example3", set_exponent(s3))
    generate("two_generator", lambda doc: doc.__setitem__("target", {"angle": theta}))

    depth = SMOKE_DEPTH if smoke else None
    for name, command, template in (("series example1", "series", "example1"),
                                    ("measure example1", "measure", "example1"),
                                    ("series example2", "series", "example2"),
                                    ("measure example3", "measure", "example3"),
                                    ("series two_generator", "series", "two_generator"),
                                    ("render two_generator", "render", "two_generator")):
        inputs.cli_ops.append(CliOp(name, command, inputs.configs[template], template, depth))

    inputs.lib_params = {
        "ex2-kernel": {"exponent": s2, "config": SMOKE_EX2 if smoke else {},
                       "configs": [inputs.configs["example2"]]},
        "diagnostics": {"s1": s1, "s3": s3, "ex3": SMOKE_EX3 if smoke else {},
                        "ex1": SMOKE_EX1 if smoke else FULL_EX1,
                        "configs": [inputs.configs["example3"], inputs.configs["example1"]]},
    }
    return inputs
