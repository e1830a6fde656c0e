"""The benchmark's workloads: inputs made from a seed, the user path they
time, and the checks on the program's outputs.

Each workload follows the path a CLI user takes. Set-up generates a planted
dataset and writes it as TSV (what ``dualvae ingest --synthetic`` does),
then ingests and splits it with the run configuration the CLI reads. A run
sets up, then repeats a cycle until ``--seconds`` have passed: train with
``trainer.fit``, save the checkpoint, then serve ``recommend`` and
``evaluate`` through ``dualvae.cli.main`` in-process, in a closed loop with
one client, setting up afresh after every few pairs of calls. Repeating the
cycle spreads every metric's samples over the whole run.

Each timing metric is the median of its samples in the run, scaled to a
nominal host speed by a fixed reference task timed between the samples
(see ``HostSpeed``). The unscaled medians are reported next to them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from dualvae import cli, config, data, evaluation, synth, trainer

from layers import AUDIT, EPOCH
from spans import Tracer


@dataclass(frozen=True)
class Workload:
    users: int
    items: int
    density: float
    valid_of_test: float
    core: int           # k-core threshold applied to both sides at ingest
    dim: int
    hidden: int
    lr: float
    epochs: int         # epochs per fit, patience off
    setups_per_fit: int   # set-ups between two fits, spread over the CLI calls
    calls_per_setup: int  # recommend and evaluate calls after each set-up


# Why each workload exists is in README.md.
_PROXY = dict(users=2000, items=3000, density=0.02, valid_of_test=0.1, core=10,
              dim=16, hidden=48, lr=0.01)
_PLANTED = dict(users=400, items=400, density=0.0125, valid_of_test=0.5, core=1,
                dim=25, hidden=64, lr=0.03)
WORKLOADS = {
    "train_proxy": Workload(**_PROXY, epochs=2, setups_per_fit=1, calls_per_setup=2),
    "train_planted": Workload(**_PLANTED, epochs=50, setups_per_fit=12, calls_per_setup=5),
}
ASPECTS = 4
TRAIN_RATIO = 0.8
RECOMMEND_USERS = 20
TOP_N = 20
CUTOFFS = (20, 50)
ADDEND_TOLERANCE = 1e-6  # a recommend row's addends sum to its score within this
REFERENCE_NOMINAL_S = 0.025  # the reference task's time on a quiet 2-vCPU Xeon virtual machine
REFERENCE_EVERY_S = 0.5      # least time from the end of one reference probe to the next


class HostSpeed:
    """A fixed reference task, timed between the workload's samples.

    The benchmark's host is shared with other tenants: the same code runs
    20-50 % slower in spells that last from seconds to minutes, often longer
    than a run, so whole runs land fast or slow. The reference task mixes
    what the workloads do (interpreted Python, a dense matmul of a batch
    slab's shape, a dict build, a sort) and slows with them. A run's timings
    are scaled by ``REFERENCE_NOMINAL_S`` over the task's median time in the
    run. The task is benchmark code, so a change to the program moves the
    scaled timings as much as the measured ones.
    """

    def __init__(self, every: float):
        rng = np.random.default_rng(0)
        self._slab = rng.standard_normal((128, 3000))
        self._weights = rng.standard_normal((3000, 48))
        self.every = every
        self.probes: list = []  # seconds per run of the task
        self.spent = 0.0
        self._next = time.perf_counter() + every

    def clock(self) -> float:
        """``time.perf_counter`` less the time spent probing."""
        return time.perf_counter() - self.spent

    def _task(self) -> int:
        total = 0
        for i in range(60_000):
            total += i * i
        for _ in range(8):
            product = self._slab @ self._weights
        index = {str(i): i for i in range(20_000)}
        order = np.argsort(self._slab, axis=1)
        return total + len(index) + int(order[0, 0]) + int(product[0, 0] > 0)

    def probe(self, force: bool = False) -> float:
        """Time the task, unless the last probe ended under ``every`` seconds
        ago; return the seconds spent."""
        start = time.perf_counter()
        if start < self._next and not force:
            return 0.0
        self._task()
        end = time.perf_counter()
        self.probes.append(end - start)
        self.spent += end - start
        self._next = end + self.every
        return end - start

    def scale(self) -> float:
        """What turns this run's seconds into seconds at the nominal speed."""
        return REFERENCE_NOMINAL_S / statistics.median(self.probes)


@dataclass
class Ledger:
    """Operations attempted and failed, with the problems found."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, what: str, problems: list):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)


@dataclass
class Prepared:
    workdir: Path
    config_path: Path
    world: synth.PlantedWorld
    split: data.DatasetSplit
    cfg: trainer.TrainConfig

    @property
    def checkpoint_path(self) -> Path:
        """Shared by the set-ups of one pass, which all make the same data."""
        return self.workdir.parent / "checkpoint.ckpt"


@dataclass
class Trained:
    result: trainer.FitResult
    epoch_s: list  # each epoch's wall time plus an equal share of bootstrap and save
    audits: int

    @property
    def fit_epoch_s(self) -> float:
        """The fit and the save's wall time over the epochs run."""
        return sum(self.epoch_s) / len(self.epoch_s)


@dataclass
class CliCall:
    seconds: float
    code: object  # exit status, or the traceback when the call raised
    stdout: str
    stderr: str


def _config_text(wl: Workload, seed: int, tsv: Path) -> str:
    return f"""[data]
path = {tsv}
format = tsv
min_user_core = {wl.core}
min_item_core = {wl.core}

[split]
train_ratio = {TRAIN_RATIO}
valid_of_test = {wl.valid_of_test}
seed = {seed}

[model]
aspects = {ASPECTS}
dim = {wl.dim}
hidden = {wl.hidden}
temp = 0.7

[train]
lr = {wl.lr}
batch_size = 128
epochs = {wl.epochs}
gamma = 0.1
tau = 0.2
patience = {wl.epochs}
seed = {seed}
dtype = float64

[eval]
cutoffs = {",".join(map(str, CUTOFFS))}
"""


def setup(wl: Workload, seed: int, workdir: Path) -> Prepared:
    """Generate, write, ingest and split the dataset (no training)."""
    workdir.mkdir(parents=True)
    matrix, world = synth.generate(wl.users, wl.items, ASPECTS, density=wl.density, seed=seed)
    synth.write_planted_tsv(world, matrix, workdir)
    config_path = workdir / "run.ini"
    config_path.write_text(_config_text(wl, seed, workdir / "interactions.tsv"), encoding="utf-8")
    run_cfg = config.load_config(config_path)
    ingested = data.ingest(run_cfg["data", "path"], run_cfg["data", "format"],
                           run_cfg["data", "min_user_core"], run_cfg["data", "min_item_core"])
    split = data.split(ingested, run_cfg["split", "train_ratio"],
                       run_cfg["split", "valid_of_test"], run_cfg["split", "seed"])
    return Prepared(workdir, config_path, world, split, run_cfg.train_config())


def train(prep: Prepared, speed: HostSpeed) -> Trained:
    """``trainer.fit`` followed by the checkpoint save, timed epoch by epoch.

    An epoch runs from one ``train_epoch_pair`` call to the next, so it
    holds its validation; the time before the first (bootstrap) and after
    the last epoch's end (the save) is shared out equally over the epochs.
    ``speed`` may probe after each ``train_epoch_pair`` call; its clock
    leaves the probes out.
    """
    name, owner, key, _ = EPOCH
    epoch = (name, owner, key, lambda args, result: speed.probe())
    with Tracer(clock=speed.clock).installed([epoch, AUDIT]) as spans:
        t0 = speed.clock()
        result = trainer.fit(prep.split, prep.cfg)
        fit_end = speed.clock()
    trainer.save_checkpoint(result.checkpoint, prep.checkpoint_path)
    t1 = speed.clock()
    starts = [s.start for s in spans.spans if s.name == EPOCH[0]] + [fit_end]
    walls = [b - a for a, b in zip(starts, starts[1:])]
    share = (t1 - t0 - sum(walls)) / len(walls)
    audits = sum(1 for s in spans.spans if s.name == AUDIT[0])
    return Trained(result, [w + share for w in walls], audits)


def cli_call(argv: list) -> CliCall:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
        except Exception:  # a crash is a failed operation, not the end of the run
            code = traceback.format_exc()
    return CliCall(time.perf_counter() - t0, code, out.getvalue(), err.getvalue())


def recommend_users(prep: Prepared, seed: int) -> list:
    rng = np.random.default_rng(seed)
    users = prep.split.train.user_ids
    return [users[k] for k in sorted(rng.choice(len(users), RECOMMEND_USERS, replace=False))]


def serve(prep: Prepared, users: list, n: int, calls: dict, speed: HostSpeed,
          deadline: float = math.inf):
    """``n`` recommend calls alternating with ``n`` evaluate calls, appended to
    ``calls``; fewer when ``deadline`` (a ``perf_counter`` time) passes."""
    common = ["--checkpoint", str(prep.checkpoint_path), "--config", str(prep.config_path)]
    argvs = {
        "recommend": ["recommend", *common, "--users", ",".join(users), "--top-n", str(TOP_N)],
        "evaluate": ["evaluate", *common],
    }
    for _ in range(n):
        for name, argv in argvs.items():
            speed.probe()
            calls[name].append(cli_call(argv))
        if time.perf_counter() >= deadline:
            return


# ---------------------------------------------------------------------------
# output checks; each returns the list of problems found

def check_fit(trained: Trained, epochs: int) -> list:
    problems = []
    for h in trained.result.history:
        for side in ("user", "item"):
            st = h[side]
            if not all(math.isfinite(x) for x in (st.loss, st.recon, st.kl, st.contrast)):
                problems.append(f"non-finite {side} loss in epoch {h['epoch']}")
    ran = trained.result.stopped_epoch
    if ran != epochs:
        problems.append(f"{ran} epochs run, {epochs} configured with patience off")
    if trained.audits != 2 * ran:
        problems.append(f"{trained.audits} frozen-side audits over {ran} epochs")
    return problems


def _exit_problem(call: CliCall) -> list:
    return [f"exit status {call.code}: {call.stderr.strip()[-300:]}"]


def check_recommend(call: CliCall, prep: Prepared, users: list) -> list:
    if call.code != 0:
        return _exit_problem(call)
    train = prep.split.train
    user_index = {uid: k for k, uid in enumerate(train.user_ids)}
    item_index = {iid: k for k, iid in enumerate(train.item_ids)}
    rows = call.stdout.splitlines()[1:]
    problems = []
    if len(rows) != len(users) * TOP_N:
        problems.append(f"{len(rows)} rows for {len(users)} users at top-{TOP_N}")
    train_items = {}
    for row in rows:
        user, _rank, item, score, *addends = row.split("\t")
        # rounding each printed value moves the sum by at most half a unit per value
        slack = ADDEND_TOLERANCE + 0.5e-6 * (len(addends) + 1)
        if abs(sum(map(float, addends)) - float(score)) > slack:
            problems.append(f"addends of user {user} item {item} do not sum to {score}")
        if user not in train_items:
            train_items[user] = set(train.user_items[user_index[user]].tolist())
        if item_index[item] in train_items[user]:
            problems.append(f"train item {item} recommended to user {user}")
    return problems


def expected_evaluate(prep: Prepared) -> str:
    """What ``evaluate`` must print: ``evaluate_ranking`` on the same checkpoint."""
    ckpt = trainer.load_checkpoint(prep.checkpoint_path, dtype="float64")
    result = evaluation.evaluate_ranking(ckpt.params, ckpt.snapshot, prep.split,
                                         target="test", cutoffs=CUTOFFS)
    lines = [f"{metric}\t{n}\t{result[f'{metric}@{n}']:.6f}\t{result['n_users']}"
             for metric in ("recall", "ndcg") for n in CUTOFFS]
    return "\n".join(lines) + "\n"


def check_evaluate(call: CliCall, expected: str) -> list:
    if call.code != 0:
        return _exit_problem(call)
    return [] if call.stdout == expected else ["metrics differ from evaluate_ranking"]


def aspect_recovery(prep: Prepared, trained: Trained) -> float:
    """Recovery of the planted item aspects by argmax C, on the ingested items."""
    planted = prep.world.item_assignments[[int(i) for i in prep.split.train.item_ids]]
    learned = trained.result.checkpoint.snapshot.C.argmax(axis=1)
    return synth.aspect_recovery_score(learned, planted, ASPECTS)


# ---------------------------------------------------------------------------
# one pass over the user path

@dataclass
class Pass:
    setup_s: list
    trained: list  # Trained, one per fit
    calls: dict
    prep: Prepared
    speed: HostSpeed

    @property
    def fit(self) -> Trained:
        return self.trained[-1]

    def signature(self) -> dict:
        """Outputs that must not depend on tracing or on repetition."""
        return {
            "val_recall_at_20": self.fit.result.checkpoint.best_metric,
            "aspect_recovery": aspect_recovery(self.prep, self.fit),
            "checkpoint_sha256": hashlib.sha256(self.prep.checkpoint_path.read_bytes()).hexdigest(),
            "recommend": sorted({c.stdout for c in self.calls["recommend"]}),
            "evaluate": sorted({c.stdout for c in self.calls["evaluate"]}),
        }


def run_pass(wl: Workload, seed: int, workdir: Path, seconds: float | None) -> Pass:
    """Set up, then repeat a cycle: fit, and ``setups_per_fit`` times serve
    ``calls_per_setup`` pairs of CLI calls and set up again.

    With ``seconds`` the cycle repeats, and the run ends after the first pair
    of CLI calls made once that many seconds have passed. Without, the work
    is fixed: one fit, ``calls_per_setup`` pairs of calls and a set-up.
    """
    deadline = math.inf if seconds is None else time.perf_counter() + seconds
    setup_s, trained, calls = [], [], {"recommend": [], "evaluate": []}
    # a traced pass does not probe: a probe inside a fit would count in its spans
    speed = HostSpeed(math.inf if seconds is None else REFERENCE_EVERY_S)

    def set_up() -> Prepared:
        speed.probe()
        t0 = time.perf_counter()
        prep = setup(wl, seed, workdir / f"setup{len(setup_s)}")
        setup_s.append(time.perf_counter() - t0)
        return prep

    def done() -> Pass:
        speed.probe(force=True)
        return Pass(setup_s, trained, calls, prep, speed)

    prep = set_up()
    users = recommend_users(prep, seed)
    while True:
        if trained:  # only the last fit's checkpoint is checked; holding them all grows memory
            trained[-1].result = replace(trained[-1].result, checkpoint=None)
        speed.probe()
        trained.append(train(prep, speed))
        for _ in range(wl.setups_per_fit if seconds else 1):
            serve(prep, users, wl.calls_per_setup, calls, speed, deadline)
            if time.perf_counter() >= deadline:
                return done()
            previous, prep = prep, set_up()
            shutil.rmtree(previous.workdir)
        if seconds is None:
            return done()


def check_pass(p: Pass, wl: Workload, ledger: Ledger, seed: int):
    for rep in range(len(p.setup_s)):
        ledger.record(f"set-up {rep}", [])
    for k, t in enumerate(p.trained):
        problems = check_fit(t, wl.epochs)
        if t.result.history != p.trained[0].result.history:
            problems.append("losses differ from the run's first fit")
        ledger.record(f"fit {k}", problems)
    users = recommend_users(p.prep, seed)
    checked = {}  # calls repeat one request, so most outputs are identical
    for k, call in enumerate(p.calls["recommend"]):
        key = (call.code, call.stdout)
        if key not in checked:
            checked[key] = check_recommend(call, p.prep, users)
        ledger.record(f"recommend call {k}", checked[key])
    expected = expected_evaluate(p.prep)
    for k, call in enumerate(p.calls["evaluate"]):
        ledger.record(f"evaluate call {k}", check_evaluate(call, expected))


def timings(p: Pass) -> dict:
    """The run's samples for each timing metric."""
    return {
        "setup_s": p.setup_s,
        "epoch_s": [e for t in p.trained for e in t.epoch_s],
        "recommend_s": [c.seconds for c in p.calls["recommend"]],
        "evaluate_s": [c.seconds for c in p.calls["evaluate"]],
    }


def end_to_end(p: Pass, ledger: Ledger) -> dict:
    """``{metric: (value, unit)}``; each timing is its samples' median at nominal speed."""
    return {
        **{name: (statistics.median(values) * p.speed.scale(), "s")
           for name, values in timings(p).items()},
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "success_rate": (1.0 - ledger.failed / ledger.attempted, "ratio"),
    }


def reported(p: Pass, ledger: Ledger) -> dict:
    """Printed and recorded, but not bounded in BENCHMARK.json (see README.md)."""
    return {
        **{f"{name}_wall": (statistics.median(values), "s") for name, values in timings(p).items()},
        "reference_s": (statistics.median(p.speed.probes), "s"),
        "val_recall_at_20": (p.fit.result.checkpoint.best_metric, "ratio"),
        "aspect_recovery": (aspect_recovery(p.prep, p.fit), "ratio"),
        "error_rate": (ledger.failed / ledger.attempted, "ratio"),
    }


def samples(p: Pass) -> dict:
    return {name: len(values) for name, values in timings(p).items()}


def sizes(p: Pass) -> dict:
    train = p.prep.split.train
    nnz = train.nnz + p.prep.split.valid.nnz + p.prep.split.test.nnz
    return {"users": train.num_users, "items": train.num_items, "nnz": nnz,
            "train_nnz": train.nnz}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
