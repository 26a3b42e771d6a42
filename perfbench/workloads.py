"""The three benchmark workloads.

Each workload has a `setup` (timed as `setup_s`) and a `run_round` that
performs one fixed unit of work through splitflow's public entry points and
checks its outputs. A round always does the same work for a given seed, so
the benchmark can repeat rounds for as long as it measures and report
medians.

- moons-distill: teacher, distill and eval stages on 2-D two-moons. Every
  matmul is tiny, so per-node tape overhead and the elementwise sigmoid
  dominate; refinement and checkpoint reads barely run.
- patches-refine: teacher, distill, refine and eval stages on 16x16 patches
  with 256-wide MLPs. BLAS takes a larger share, refinement runs its three
  AdamW optimizers and multi-root backward, and the dataset build, which
  every stage repeats, costs real time.
- sample-serve: a closed loop with one client issuing a seeded mix of
  in-process `splitflow sample` requests and teacher ODE sampling requests
  against checkpoints written in setup. The code runs forward only, so
  backward and optimizer changes should not move it.
"""

import contextlib
import dataclasses
import io
import os
import statistics
import sys
import time
import traceback

import numpy as np

import splitflow
import splitflow.cli
import checks

# Fixed initialization seed of the sample-serve models: they are never
# trained, so set-up cost does not depend on training speed.
SERVE_INIT_SEED = 20260517


@dataclasses.dataclass
class OpResult:
    """One operation: a pipeline stage call or a request."""
    kind: str
    wall_s: float | None          # None when the operation raised
    problems: list
    rows: int = 0                 # samples produced (sample-serve)


@dataclasses.dataclass
class Round:
    ops: list
    quality: dict | None = None

    @property
    def complete(self):
        return all(op.wall_s is not None for op in self.ops)

    @property
    def wall_s(self):
        return sum(op.wall_s for op in self.ops)


def _op_context(tracer, kind, steps):
    return tracer.op(kind, steps) if tracer is not None else contextlib.nullcontext()


def _failed(kind, exc):
    traceback.print_exc(file=sys.stderr)
    return OpResult(kind, None, [f"{kind}: raised {type(exc).__name__}: {exc}"])


def tail(values, beyond=10):
    """Highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, count); with too few samples, the maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0, n
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


class PipelineWorkload:
    """Training workload: one `run_pipeline` call per stage, per round."""

    def __init__(self, config, stages):
        self.config = config
        self.stages = stages
        self.dims = None
        self.teacher = None

    def setup(self, directory):
        """Dataset build, model build and a checkpoint write.

        The training set is built as `run_pipeline` builds it (same seed
        rule, same degradation), but from public functions only: the
        pipeline's own helper is private and may change, say to cache its
        result, while set-up must keep timing one full build. Only the
        shapes of this dataset are used, so a drift from the pipeline's
        seed rule would change no check.
        """
        os.makedirs(directory)
        config = dataclasses.replace(self.config, output_dir=str(directory))
        seed = splitflow.stage_seed(config.seed, "dataset") + config.dataset_seed_offset
        degradation = None
        if config.dataset_name == "tiny-patches":
            degradation = splitflow.DegradationParams(
                downsample_factor=config.degrade_factor,
                noise_std=config.degrade_noise_std)
        data = splitflow.generate_dataset(config.dataset_name, config.dataset_size,
                                          seed, degradation=degradation)
        x, cond = data.flat_x(), data.cond_array()
        self.dims = (x.shape[1], cond.shape[1])
        self.teacher = splitflow.TeacherModel(
            x.shape[1], cond.shape[1],
            hidden_sizes=(config.model_hidden,) * config.model_layers,
            time_embed_dim=config.model_time_embed_dim,
            rng=splitflow.make_rng(splitflow.stage_seed(config.seed, "teacher")))
        splitflow.save_checkpoint(self.teacher, {"iteration": 0},
                                  os.path.join(directory, "teacher-init.ckpt"))
        with open(os.path.join(directory, "experiment.cfg"), "w", encoding="utf-8") as fh:
            fh.write(splitflow.dump_config(config))

    def run_round(self, directory, tracer=None):
        if os.path.exists(directory):
            raise RuntimeError(f"round directory {directory} already exists")
        config = dataclasses.replace(self.config, output_dir=str(directory))
        ops = []
        quality = None
        for stage in self.stages:
            started_ns = time.time_ns()
            steps = checks.stage_iterations(stage, config)
            try:
                with _op_context(tracer, f"stage.{stage}", steps):
                    t0 = time.perf_counter()
                    splitflow.run_pipeline(config, [stage])
                    wall = time.perf_counter() - t0
                problems = checks.check_stage(stage, config, started_ns, *self.dims)
                if stage == "eval":
                    quality = checks.read_quality(config)
            except Exception as exc:  # a crashed stage or unreadable output fails it
                ops.append(_failed(stage, exc))
                return Round(ops)
            ops.append(OpResult(stage, wall, problems))
        return Round(ops, quality=quality)

    def verify_rounds(self, rounds):
        """Repeat rounds use the same seed, so quality must be bit-identical."""
        reference = next((r.quality for r in rounds if r.quality), None)
        for r in rounds:
            if r.quality is not None and r.quality != reference:
                r.ops[-1].problems.append(
                    f"eval: quality {r.quality} differs from the first round's {reference}")

    def report(self, rounds):
        """Per-stage and quality metrics: name -> (value, unit, better, note)."""
        done = [r for r in rounds if r.complete]
        out = {}
        for stage in self.stages:
            walls = [op.wall_s for r in done for op in r.ops if op.kind == stage]
            if stage == "eval":
                out["eval_s"] = (statistics.median(walls), "s", "lower", "")
            else:
                rate = checks.stage_iterations(stage, self.config) / statistics.median(walls)
                out[f"{stage}_steps_per_s"] = (rate, "1/s", "higher", "")
        quality = next((r.quality for r in done if r.quality), {})
        if "sliced_wasserstein" in quality:
            out["quality.sw"] = (float(quality["sliced_wasserstein"]), "1", "lower", "")
        if "psnr" in quality:
            out["quality.psnr_db"] = (float(quality["psnr"]), "dB", "higher", "")
            out["quality.feature_distance"] = (
                float(quality["feature_distance"]), "1", "lower", "")
        return out

    def taped_forward_inputs(self, rng):
        """The teacher MLP and an input batch at the teacher's batch size."""
        net = self.teacher.net
        x = rng.standard_normal((self.config.teacher_batch_size, net.layer_sizes[0]))
        return net, x.astype(np.float32)


@dataclasses.dataclass
class Request:
    kind: str       # "sample" or "ode"
    rows: int
    steps: int
    seed: int


# The request classes of sample-serve, (kind, rows, steps), with the median
# latency in ms each had when the mix was fixed (2-vCPU x86-64 VM, 1 BLAS
# thread, untrained 128x128 models). Small requests are overhead-bound, large
# ones and the ODE compute-bound. There is no real traffic to copy, so the
# mix is assumed: each class gets about the same share of a round's time, one
# ODE request's worth, so every class shows in `round_s`. The counts are
# fixed here rather than measured at run time, so the mix does not follow
# the code's speed.
SERVE_LATENCY_MS = {
    ("sample", 16, 1): 3.8,
    ("sample", 16, 4): 4.5,
    ("sample", 2048, 1): 30.0,
    ("sample", 2048, 4): 96.0,
    ("ode", 256, 100): 220.0,
}
SERVE_SHARE_MS = SERVE_LATENCY_MS[("ode", 256, 100)]
# One round of sample-serve: each class and how many requests of it.
SERVE_MIX = [(cls, max(1, round(SERVE_SHARE_MS / ms)))
             for cls, ms in SERVE_LATENCY_MS.items()]


class ServeWorkload:
    """Closed loop, one client: each round issues the same seeded request list."""

    def __init__(self, config):
        self.config = config
        rng = splitflow.make_rng(config.seed)
        requests = [Request(kind, rows, steps, 0)
                    for (kind, rows, steps), count in SERVE_MIX for _ in range(count)]
        order = rng.permutation(len(requests))
        self.requests = [dataclasses.replace(requests[i], seed=int(rng.integers(0, 2**31)))
                         for i in order]
        self.directory = None

    def setup(self, directory):
        """Eval-set build, fixed-seed teacher and student, checkpoint writes."""
        os.makedirs(directory)
        config = self.config
        seed = splitflow.stage_seed(config.seed, "eval-dataset") + config.dataset_seed_offset
        data = splitflow.generate_dataset(config.dataset_name, config.eval_sample_count, seed)
        state_dim, cond_dim = data.flat_x().shape[1], data.cond_array().shape[1]
        hidden = (config.model_hidden,) * config.model_layers
        teacher = splitflow.TeacherModel(state_dim, cond_dim, hidden_sizes=hidden,
                                         time_embed_dim=config.model_time_embed_dim,
                                         rng=splitflow.make_rng(SERVE_INIT_SEED))
        student = splitflow.StudentModel(state_dim, cond_dim, hidden_sizes=hidden,
                                         time_embed_dim=config.model_time_embed_dim,
                                         rng=splitflow.make_rng(SERVE_INIT_SEED + 1))
        self.teacher_path = os.path.join(directory, "teacher.ckpt")
        self.student_path = os.path.join(directory, "student_stage1.ckpt")
        splitflow.save_checkpoint(teacher, {"iteration": 0}, self.teacher_path)
        splitflow.save_checkpoint(student, {"iteration": 0}, self.student_path)
        self.config_path = os.path.join(directory, "serve.cfg")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(splitflow.dump_config(
                dataclasses.replace(config, output_dir=str(directory))))
        self.teacher, _ = splitflow.load_checkpoint(self.teacher_path)
        self.student, _ = splitflow.load_checkpoint(self.student_path)
        self.cond_pool = data.cond_array()
        self.directory = directory

    def _ode_inputs(self, request):
        rng = splitflow.make_rng(request.seed)
        idx = rng.integers(0, self.cond_pool.shape[0], size=request.rows)
        eps = rng.standard_normal((request.rows, self.teacher.state_dim)).astype(np.float32)
        return eps, self.cond_pool[idx]

    def check_sample(self, request, path):
        """Compare the CSV `splitflow sample` wrote with the raw forward."""
        return checks.compare(f"sample {request.rows}x{request.steps} seed {request.seed}",
                              checks.read_samples(path), self._sample_reference(request))

    def _sample_reference(self, request):
        """What `splitflow sample --seed S` must output, from the raw forward."""
        config = self.config
        seed = splitflow.stage_seed(request.seed, "eval-dataset") + config.dataset_seed_offset
        cond_ref = splitflow.generate_dataset(
            config.dataset_name, config.eval_sample_count, seed).cond_array()
        rng = splitflow.make_rng(request.seed)
        idx = rng.integers(0, cond_ref.shape[0], size=request.rows)
        eps = rng.standard_normal((request.rows, self.student.state_dim)).astype(np.float32)
        return checks.raw_student_sample(self.student, eps, cond_ref[idx], request.steps)

    def run_request(self, request, tracer=None):
        out = os.path.join(self.directory, "samples.csv")
        if os.path.exists(out):
            os.remove(out)
        try:
            if request.kind == "sample":
                argv = ["sample", "--config", self.config_path,
                        "--seed", str(request.seed), "--checkpoint", self.student_path,
                        "--num", str(request.rows), "--steps", str(request.steps),
                        "--output", out]
                printed = io.StringIO()
                with _op_context(tracer, "sample", 1), contextlib.redirect_stdout(printed):
                    t0 = time.perf_counter()
                    code = splitflow.cli.main(argv)
                    wall = time.perf_counter() - t0
                if code != 0 or printed.getvalue().strip() != out:
                    problems = [f"sample: exit code {code}, printed {printed.getvalue()!r}"]
                else:
                    problems = self.check_sample(request, out)
            else:
                eps, cond = self._ode_inputs(request)
                sampler = splitflow.SamplerConfig(num_steps=request.steps)
                with _op_context(tracer, "ode", 1):
                    t0 = time.perf_counter()
                    z, _ = splitflow.ode_sample(
                        splitflow.model_field(self.teacher, cond), eps, sampler)
                    wall = time.perf_counter() - t0
                problems = checks.compare(
                    f"ode seed {request.seed}", z,
                    checks.raw_euler(self.teacher, eps, cond, request.steps))
        except Exception as exc:  # a crashed request is a failed operation
            return _failed(request.kind, exc)
        return OpResult(request.kind, wall, problems, rows=request.rows)

    def run_round(self, directory, tracer=None):
        """Every request writes into the set-up directory, so `directory`
        is unused."""
        return Round([self.run_request(request, tracer) for request in self.requests])

    def verify_rounds(self, rounds):
        """Each request is checked on its own; nothing spans rounds."""

    def report(self, rounds):
        """Latency and throughput metrics: name -> (value, unit, better, note)."""
        ops = [op for r in rounds for op in r.ops if op.wall_s is not None]
        out = {}
        for kind in ("sample", "ode"):
            ms = [1000.0 * op.wall_s for op in ops if op.kind == kind]
            value, pct, n = tail(ms)
            out[f"{kind}_ms.p50"] = (statistics.median(ms), "ms", "lower", f"n={n}")
            out[f"{kind}_ms.tail"] = (value, "ms", "lower", f"p{pct:.1f} of n={n}")
        rate = sum(op.rows for op in ops) / sum(op.wall_s for op in ops)
        out["samples_per_s"] = (rate, "1/s", "higher", "")
        return out

    def taped_forward_inputs(self, rng):
        """The teacher MLP and an input batch at the ODE batch size."""
        net = self.teacher.net
        rows = next(rows for (kind, rows, _), _ in SERVE_MIX if kind == "ode")
        x = rng.standard_normal((rows, net.layer_sizes[0]))
        return net, x.astype(np.float32)


def make(name, seed):
    """Build a workload; `seed` becomes the master seed of its config."""
    if name == "moons-distill":
        config = splitflow.ExperimentConfig(
            dataset_name="two-moons-conditional", dataset_size=8192,
            model_hidden=128, model_layers=2,
            teacher_iterations=300, teacher_batch_size=256,
            stage1_iterations=300, stage1_batch_size=256,
            stage1_branch_probability=0.6, stage1_lr=5e-4,
            eval_n_seeds=10, eval_sample_count=2048, seed=seed)
        return PipelineWorkload(config, ["teacher", "distill", "eval"])
    if name == "patches-refine":
        config = splitflow.ExperimentConfig(
            dataset_name="tiny-patches", dataset_size=4096,
            model_hidden=256, model_layers=2,
            teacher_iterations=150, teacher_batch_size=128,
            stage1_iterations=150, stage1_batch_size=128,
            stage1_branch_probability=0.3, stage1_condition_dropout=0.2,
            stage1_lr=2e-4,
            stage2_iterations=60, stage2_batch_size=64, stage2_vsd_t_min=0.5,
            stage2_lr=1e-5, stage2_regularizer_lr=1e-5, stage2_discriminator_lr=1e-5,
            eval_n_seeds=8, eval_sample_count=512, seed=seed)
        return PipelineWorkload(config, ["teacher", "distill", "refine", "eval"])
    if name == "sample-serve":
        config = splitflow.ExperimentConfig(
            dataset_name="two-moons-conditional", model_hidden=128, model_layers=2,
            eval_sample_count=2048, seed=seed)
        return ServeWorkload(config)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("moons-distill", "patches-refine", "sample-serve")
