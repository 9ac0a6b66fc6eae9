"""The benchmark's workloads, each a complete demlearn config.

Every workload pins all dotted config keys itself, so a change to a built-in
default or to `configs/protocol.cfg` cannot drift a workload silently: the
benchmark compares the run's own config echo against these values and fails
the run on any difference.  Only `run.seed` and `data.seed` vary; both come
from the benchmark's `--seed`, or are `REFERENCE_SEED` in the one repeat per
run whose final metrics are reported.
"""

from __future__ import annotations

from dataclasses import dataclass

# The 50-client protocol: MLP-32, K=4, tau=2, 20 local epochs of batch 16.
_PROTOCOL = {
    "run.algorithm": "demlearn-p",
    "run.rounds": 20,
    "run.k": 4,
    "run.tau": 2,
    "run.mu": 0.005,
    "run.beta0": 1.0,
    "run.beta_decay": 0.995,
    "run.beta_min": 0.5,
    "run.epochs": 20,
    "run.batch_size": 16,
    "run.lr": 0.1,
    "run.metric": "weights",
    "run.fixed_structure": False,
    "run.fedavg_weighting": "sample",
    "model.kind": "mlp-1hidden",
    "model.hidden_dim": 32,
    "data.source": "synthetic",
    "data.dir": "data",
    "data.clients": 50,
    "data.labels_per_client": 2,
    "data.samples_per_client": 80,
    "data.test_frac": 0.2,
    "synthetic.classes": 10,
    "synthetic.input_dim": 16,
    "synthetic.samples_per_class": 400,
    "synthetic.separation": 6.0,
}

SEED_KEYS = ("run.seed", "data.seed")
# the seed of the repeat whose final accuracies every run reports: fixed, so
# those metrics do not vary between runs and a drop in accuracy shows
REFERENCE_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    # C-GEN level whose first crossing by the reference seed is timed; every
    # seed tried reaches it by round 1, and a repeat that never does fails
    cgen_target: float

    def pinned(self, seed: int) -> dict:
        return dict(self.config, **{key: seed for key in SEED_KEYS})


def config_text(values: dict) -> str:
    """The `key = value` file `demlearn run --config` reads."""
    lines = []
    for key, value in values.items():
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "protocol-demlearn-p",
            "the north-star 50-client protocol; client SGD (local_solve, prox_grad "
            "with 4 anchors) is ~88% of wall time",
            dict(_PROTOCOL),
            cgen_target=0.25,
        ),
        Workload(
            "server-120",
            "120 logistic clients, 1 epoch, tau=1: the server (distances + UPGMA) is "
            "~70% of run time and most of setup; client SGD ~9%",
            dict(
                _PROTOCOL,
                **{
                    "run.rounds": 5,
                    "run.tau": 1,
                    "run.epochs": 1,
                    "model.kind": "multinomial-logistic",
                    "data.clients": 120,
                    "synthetic.samples_per_class": 960,
                },
            ),
            cgen_target=0.25,
        ),
        Workload(
            "flat-fedavg",
            "the same protocol as FedAvg (mu=0): no clustering or tree, no anchors; "
            "bypasses the hierarchy and guards the baseline loop",
            dict(_PROTOCOL, **{"run.algorithm": "fedavg", "run.mu": 0.0}),
            cgen_target=0.25,
        ),
    )
}
