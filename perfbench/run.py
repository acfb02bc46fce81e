#!/usr/bin/env python3
"""starshape benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload star2-deep --seed 1 --seconds 20 --trace 0

Run from anywhere; the program under test is the `src/starshape` package of
the checkout that holds this directory (or of --root).  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer metrics of a separate traced run.  Progress and the
traced self-time breakdown go to standard error.  perfbench/README.md says
what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
import types
from dataclasses import dataclass
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
DEFAULT_ROOT = HERE.parent
GOLDENS = HERE / "goldens"

# Volume estimates use one fixed sample count and sampling seed, so that an
# estimate can be held against its recorded value whatever the workload seed.
VOLUME_SAMPLES = 500
VOLUME_SEED = 1401
# Coordinate-change seeds per case in the library workloads; see case_seed.
PANEL = 3
# A single CLI call that has not ended by then is killed and counted failed.
CLI_TIMEOUT_S = 120.0


@dataclass
class Op:
    """One timed operation: a symbolic power, a volume estimate or a CLI call."""

    name: str
    seconds: float | None
    payload: object = None
    error: str | None = None


@dataclass
class Env:
    lib: types.SimpleNamespace
    root: Path
    work: Path
    seed: int
    goldens: dict

    def child_env(self) -> dict:
        env = {k: v for k, v in os.environ.items() if k != "STARSHAPE_CACHE"}
        env["PYTHONPATH"] = str(self.root / "src")
        return env

    def fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.work))


def load_library(root: Path) -> types.SimpleNamespace:
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    import starshape.cli
    import starshape.gin
    import starshape.invariants
    import starshape.scheme
    import starshape.shape

    return types.SimpleNamespace(
        cli=starshape.cli,
        gin=starshape.gin,
        invariants=starshape.invariants,
        scheme=starshape.scheme,
        shape=starshape.shape,
    )


def load_goldens() -> dict:
    return {
        name: json.loads((GOLDENS / f"{name}.json").read_text(encoding="utf-8"))
        for name in ("gin", "volume", "cli")
    }


def import_probe(env: Env) -> None:
    """Import the package in a fresh interpreter: the start-up every user pays."""
    subprocess.run(
        [sys.executable, "-c", "import starshape.cli"],
        env=env.child_env(), cwd=env.work, check=True,
    )


def _fail_all(ops: list[Op], message: str) -> None:
    for op in ops:
        op.error = message


def gin_doc(lib, res) -> dict:
    """result_to_json without seeds_used: the GIN does not depend on the seed."""
    doc = lib.gin.result_to_json(res)
    doc.pop("seeds_used")
    return doc


def star_key(n: int, s: int, m: int) -> str:
    return f"star-{n}-{s}-{m}"


def case_seed(seed: int, pass_no: int, n: int, s: int) -> int:
    """The seed verify_theorem gets for one case in one pass.

    Elimination cost follows the random coordinate changes that the seed
    draws: star(2,4) m=6 takes from 5.8 s to 7.9 s over a dozen seeds.  So
    the library workloads draw from a fixed panel of PANEL seeds per case,
    pass j taking panel entry (seed + j) mod PANEL, and run whole rounds of
    PANEL passes: every run times the same work, whatever its seed, and the
    workload seed only rotates the panel.  Answers do not depend on the
    seed; every pass is checked against the same goldens.
    """
    return random.Random(f"panel/{(seed + pass_no) % PANEL}/{n}/{s}").getrandbits(63)


# ---------------------------------------------------------------------------
# Library workloads: verify_theorem over star configurations.


class _OpClock:
    """Times each compute_gin call from its cache lookup to its return or
    store; one op per symbolic power, without patching the library."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.times: list[float] = []
        self._start = 0.0

    def get(self, key, *args, **kwargs):
        self._start = time.perf_counter()
        hit = super().get(key, *args, **kwargs)
        if hit is not None:
            self.times.append(time.perf_counter() - self._start)
        return hit

    def put(self, key, res, *args, **kwargs):
        super().put(key, res, *args, **kwargs)
        self.times.append(time.perf_counter() - self._start)


def _clock_class(base):
    return type("Clock" + base.__name__, (_OpClock, base), {})


class StarWorkload:
    """verify_theorem for each (n, s, m_max) case.

    Without a file cache every power is computed: the in-memory clock cache
    is new per call and each power is looked up once, so it never hits and
    the work is that of cache=None.  With file_cache each pass writes into a
    fresh, empty FileGinCache.  volume_samples > 0 adds a Monte-Carlo volume
    estimate of every scaled shape.
    """

    setup_repeats = 11
    passes_per_round = PANEL

    def __init__(self, cases, file_cache: bool = False, volume_samples: int = 0):
        self.cases = list(cases)
        self.file_cache = file_cache
        self.volume_samples = volume_samples
        self.cache_dir: Path | None = None

    def setup(self, env: Env) -> None:
        import_probe(env)
        for n, s, _ in self.cases:
            env.lib.scheme.build_star(n, s)

    def before_pass(self, env: Env) -> None:
        if self.file_cache:
            self.cache_dir = env.fresh_dir("gin-cache-")

    def _cache(self, env: Env):
        if self.file_cache:
            return _clock_class(env.lib.gin.FileGinCache)(str(self.cache_dir))
        return _clock_class(env.lib.gin.GinCache)()

    def run_pass(self, env: Env, pass_no: int, in_process: bool = True) -> list[Op]:
        lib = env.lib
        ops: list[Op] = []
        shapes: list[tuple[str, object]] = []
        for n, s, m_max in self.cases:
            case_ops = [Op("gin " + star_key(n, s, m), None) for m in range(1, m_max + 1)]
            ops.extend(case_ops)
            cache = self._cache(env)
            try:
                report = lib.invariants.verify_theorem(
                    n, s, m_max, seed=case_seed(env.seed, pass_no, n, s), cache=cache
                )
            except Exception as exc:  # counted as failed operations, run goes on
                traceback.print_exc()
                _fail_all(case_ops, f"verify_theorem raised {exc!r}")
                continue
            if len(cache.times) != m_max or len(report.results) != m_max:
                _fail_all(case_ops, "expected one timed compute_gin per power")
                continue
            for op, seconds, res in zip(case_ops, cache.times, report.results):
                op.seconds = seconds
                op.payload = (report, res)
            if self.volume_samples:
                shapes += [
                    (star_key(n, s, r.m), lib.shape.scaled(lib.shape.shape_of(r), r.m))
                    for r in report.results
                ]
        for key, sh in shapes:
            start = time.perf_counter()
            try:
                est = lib.shape.q_volume_estimate(sh, samples=self.volume_samples, seed=VOLUME_SEED)
            except Exception as exc:
                traceback.print_exc()
                ops.append(Op("volume " + key, None, error=f"q_volume_estimate raised {exc!r}"))
                continue
            ops.append(Op("volume " + key, time.perf_counter() - start, payload=(key, est)))
        return ops

    def check(self, env: Env, ops: list[Op]) -> None:
        gins, volumes = env.goldens["gin"], env.goldens["volume"]
        for op in ops:
            if op.error is not None:
                continue
            if op.name.startswith("gin "):
                report, res = op.payload
                key = op.name[4:]
                bad = [v for v in ("V1", "V2", "V3", "V4") if not report.verdicts.get(v)]
                if bad:
                    op.error = f"verdicts failed: {bad}"
                elif gin_doc(env.lib, res) != gins.get(key):
                    op.error = f"result document of {key} differs from its golden"
            else:
                key, (value, stderr) = op.payload
                rec = volumes.get(f"{key}/{self.volume_samples}")
                if rec is None:
                    op.error = f"no recorded volume for {key}"
                    continue
                # A recorded stderr of 0 means every sample fell in Q; the
                # floor keeps an exact replacement from needing bit equality.
                tol = 4 * max(rec["stderr"], rec["value"] / self.volume_samples)
                if abs(value - rec["value"]) > tol:
                    op.error = f"volume {value} of {key} is off {rec['value']} by more than {tol}"


# ---------------------------------------------------------------------------
# CLI workload: starshape subprocesses against a warm --cache directory.


@dataclass(frozen=True)
class CliCall:
    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()  # among "json", "csv", "svg"


def canonical_output(kind: str, text: str) -> str:
    """Output text as compared with its golden.  JSON must be exactly the
    CLI's canonical dump; its seeds_used (which follow --seed) is dropped."""
    if kind != "json":
        return text
    doc = json.loads(text)
    if json.dumps(doc, indent=2, sort_keys=True) + "\n" != text:
        raise ValueError("JSON output is not in canonical form")
    seeds = doc.pop("seeds_used", None)
    if seeds is not None and not (
        isinstance(seeds, list) and len(seeds) == 2 and all(str(x).isdigit() for x in seeds)
    ):
        raise ValueError(f"malformed seeds_used {seeds!r}")
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _dir_state(path: Path) -> dict:
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in path.iterdir()}


class CliWorkload:
    """A fixed sequence of CLI calls that only read the cache.  Set-up fills
    a fresh --cache directory by running every call once, cold."""

    setup_repeats = 3
    passes_per_round = 1

    def __init__(self, calls) -> None:
        self.calls = list(calls)
        self.cache_dir: Path | None = None
        self.out_dir: Path | None = None

    def _argv(self, env: Env, call: CliCall, with_outputs: bool) -> list[str]:
        argv = list(call.argv) + ["--seed", str(env.seed), "--cache", str(self.cache_dir)]
        if with_outputs:
            for kind in call.outputs:
                argv += [f"--{kind}", str(self.out_dir / f"{call.name}.{kind}")]
        return argv

    def setup(self, env: Env) -> None:
        import_probe(env)
        self.cache_dir = env.fresh_dir("cli-cache-")
        self.out_dir = env.fresh_dir("cli-out-")
        for call in self.calls:
            cmd = [sys.executable, "-m", "starshape.cli"] + self._argv(env, call, False)
            subprocess.run(cmd, env=env.child_env(), cwd=env.work, stdout=subprocess.DEVNULL, check=False)

    def before_pass(self, env: Env) -> None:
        for p in self.out_dir.iterdir():
            p.unlink()

    def _subprocess(self, env: Env, argv: list[str], log: Path) -> tuple[float, int, float]:
        """(seconds, exit code, peak RSS in MiB) of one CLI process."""
        with open(log.with_suffix(".stdout"), "wb") as out, open(log.with_suffix(".stderr"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "starshape.cli"] + argv,
                stdout=out, stderr=err, env=env.child_env(), cwd=env.work,
            )
            watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            watchdog.start()
            status = None
            try:
                _, status, usage = os.wait4(proc.pid, 0)  # reaps it, with its rusage
            finally:
                watchdog.cancel()
                if status is None:
                    proc.kill()
                    proc.wait()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return seconds, proc.returncode, usage.ru_maxrss / 1024.0

    def _in_process(self, env: Env, argv: list[str], log: Path) -> tuple[float, int, None]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = env.lib.cli.main(argv)
        seconds = time.perf_counter() - start
        log.with_suffix(".stdout").write_text(out.getvalue(), encoding="utf-8")
        return seconds, code, None

    def run_pass(self, env: Env, pass_no: int, in_process: bool = False) -> list[Op]:
        ops = []
        runner = self._in_process if in_process else self._subprocess
        for call in self.calls:
            before = _dir_state(self.cache_dir)
            try:
                seconds, code, rss = runner(env, self._argv(env, call, True), self.out_dir / call.name)
            except Exception as exc:
                traceback.print_exc()
                ops.append(Op("cli " + call.name, None, error=f"CLI call raised {exc!r}"))
                continue
            op = Op("cli " + call.name, seconds, payload=(call, code, rss))
            if _dir_state(self.cache_dir) != before:
                op.error = "the call changed the cache directory: not a pure cache hit"
            ops.append(op)
        return ops

    def check(self, env: Env, ops: list[Op]) -> None:
        for op in ops:
            if op.error is not None:
                continue
            call, code, _ = op.payload
            want = env.goldens["cli"].get(call.name)
            if want is None:
                op.error = f"no golden for {call.name}"
                continue
            stdout = (self.out_dir / f"{call.name}.stdout").read_bytes().decode("utf-8")
            if code != want["exit"]:
                op.error = f"exit code {code}, expected {want['exit']}"
            elif stdout != want["stdout"]:
                op.error = "standard output differs from its golden"
            for kind in call.outputs:
                if op.error is not None:
                    break
                path = self.out_dir / f"{call.name}.{kind}"
                try:
                    got = canonical_output(kind, path.read_bytes().decode("utf-8"))
                except (OSError, ValueError) as exc:
                    op.error = f"{kind} output unreadable: {exc}"
                    break
                if got != want[kind]:
                    op.error = f"{kind} output differs from its golden"

    @staticmethod
    def peak_rss_mb(ops: list[Op]) -> float:
        return max((op.payload[2] for op in ops if op.payload is not None), default=0.0)


# ---------------------------------------------------------------------------
# Workload definitions.  Later changes are judged on these names.

STAR2_DEEP_CASES = [(2, 4, 6), (2, 5, 4)]
STAR3_VOLUME_CASES = [(3, 4, 3), (3, 5, 3)]
WARM_CLI_CALLS = [
    CliCall("verify-2-4", ("verify", "--n", "2", "--s", "4", "--m-max", "5")),
    CliCall("verify-3-5", ("verify", "--n", "3", "--s", "5", "--m-max", "3"), ("json",)),
    CliCall(
        "custom-conic",
        ("custom", "--points", "conic", "--m-max", "4", "--expect-vertices", "2,3"),
        ("svg",),
    ),
    CliCall("invariants-2-3", ("invariants", "--n", "2", "--s", "3", "--m-max", "5"), ("csv",)),
    CliCall("star-2-4-5", ("star", "--n", "2", "--s", "4", "--m", "5"), ("json", "csv", "svg")),
]

WORKLOADS = {
    "star2-deep": lambda: StarWorkload(STAR2_DEEP_CASES),
    "star3-volume": lambda: StarWorkload(
        STAR3_VOLUME_CASES, file_cache=True, volume_samples=VOLUME_SAMPLES
    ),
    "warm-cli": lambda: CliWorkload(WARM_CLI_CALLS),
}


# ---------------------------------------------------------------------------
# Running and reporting.


def _check(workload, env: Env, ops: list[Op]) -> None:
    workload.check(env, ops)
    for op in ops:
        if op.error:
            print(f"FAILED {op.name}: {op.error}", file=sys.stderr)


def _timed_pass(workload, env: Env, pass_no: int, in_process: bool) -> tuple[float, list[Op]]:
    workload.before_pass(env)
    start = time.perf_counter()
    ops = workload.run_pass(env, pass_no, in_process=in_process)
    wall = time.perf_counter() - start
    _check(workload, env, ops)
    return wall, ops


def _setup(workload, env: Env, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        workload.setup(env)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _passes(workload, env: Env, seconds: float, whole_rounds: bool, in_process: bool):
    """Timed passes until `seconds` have gone by, at least one."""
    per_round = workload.passes_per_round if whole_rounds else 1
    passes: list[tuple[float, list[Op]]] = []
    start = time.perf_counter()
    while len(passes) % per_round or not passes or time.perf_counter() - start < seconds:
        passes.append(_timed_pass(workload, env, len(passes), in_process))
    return passes


def end_to_end(workload, env: Env, seconds: float) -> tuple[dict, list[Op]]:
    setup_s = _setup(workload, env, workload.setup_repeats)
    passes = _passes(workload, env, seconds, whole_rounds=True, in_process=False)
    ops = [op for _, pass_ops in passes for op in pass_ops]
    timed = [op.seconds for op in ops if op.seconds is not None]
    if isinstance(workload, CliWorkload):
        peak = workload.peak_rss_mb(ops)
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = sum(op.error is not None for op in ops)
    metrics = {
        "wall_s": (statistics.median(w for w, _ in passes), "s"),
        "setup_s": (setup_s, "s"),
        "slowest_op_s": (
            statistics.median(max(op.seconds or 0.0 for op in p) for _, p in passes), "s"
        ),
        "op_p50_s": (statistics.median(timed) if timed else 0.0, "s"),
        "peak_rss_mb": (peak, "MiB"),
        "pass_frac": ((len(ops) - failed) / len(ops), "frac"),
    }
    print(f"{len(passes)} passes, setup {setup_s:.3f}s", file=sys.stderr)
    return metrics, ops


def traced(workload, env: Env, seconds: float, name: str) -> tuple[dict, list[Op]]:
    """Per-layer metrics, per pass, from traced passes that repeat the
    untraced passes before them (same pass numbers, so the same seeds); the
    untraced ones give the overhead base.  Each half takes about half of
    `seconds`.  CLI calls run in-process through cli.main, so that their
    layers are seen."""
    _setup(workload, env, 1)
    plain = _passes(workload, env, seconds / 2, whole_rounds=False, in_process=True)
    tracer = spans.Tracer()
    spans.install(tracer, env.lib)
    ops = [op for _, pass_ops in plain for op in pass_ops]
    clocked = []
    try:
        for pass_no in range(len(plain)):
            workload.before_pass(env)
            start = time.perf_counter()
            with tracer.span("bench.pass"):
                pass_ops = workload.run_pass(env, pass_no, in_process=True)
            clocked.append(time.perf_counter() - start)
            _check(workload, env, pass_ops)  # calls no traced name
            ops += pass_ops
    finally:
        tracer.restore()
    metrics, summary = spans.layer_metrics(tracer, clocked, statistics.median(w for w, _ in plain))
    out = env.root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{name}-seed{env.seed}.json"
    spans.write(path, tracer, summary, metrics)
    print(spans.format_breakdown(summary), file=sys.stderr)
    print(f"trace written to {path}", file=sys.stderr)
    return metrics, ops


def run_workload(workload, env: Env, seconds: float, trace: bool, name: str) -> dict:
    metrics, ops = (
        traced(workload, env, seconds, name) if trace else end_to_end(workload, env, seconds)
    )
    failed = sum(op.error is not None for op in ops)
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


@contextlib.contextmanager
def open_env(root: Path, seed: int, goldens: dict | None = None):
    """Env for one run, with a scratch directory inside the checkout that is
    removed afterwards."""
    lib = load_library(root)
    work = root / ".perfbench_work"
    work.mkdir(exist_ok=True)
    env = Env(lib, root, Path(tempfile.mkdtemp(dir=work)), seed,
              load_goldens() if goldens is None else goldens)
    try:
        yield env
    finally:
        shutil.rmtree(env.work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--root", type=Path, default=DEFAULT_ROOT,
                    help="checkout whose src/starshape is measured")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    if not (root / "src" / "starshape" / "__init__.py").is_file():
        print(f"error: no src/starshape package under {root}", file=sys.stderr)
        return 2
    with open_env(root, args.seed) as env:
        result = run_workload(WORKLOADS[args.workload](), env, args.seconds,
                              bool(args.trace), args.workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
