"""fbgvib benchmark: end-to-end runs, output checks and a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bend150-cli --seed 1 --seconds 20 --trace 0

Workloads (closed loop, one caller, each operation starts after the last
one ends; see NOTES.md for why each was chosen and what it bypasses):

  bend150-cli      the five-stage CLI chain on the 150 s pull/release trace,
                   each stage its own process
  sweep-paper      `sweep --preset paper` and `sweep --from-dir` over the
                   same 40-point grid, each its own process
  monitor-windows  an in-process loop over 10 s windows of a 300 s trace
                   with injected level steps

With `--trace 0` the run times whole passes of the workload for
`--seconds`, each step normalised by the reference task in reference.py
timed around it, and reports the end-to-end metrics; with `--trace 1` it
replays the workload in this process with spans around each layer, runs
the layer suite, and reports the per-layer metrics. Either way the last
stdout line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`, and a fuller record (per-stage medians, output digests,
provenance) is appended to `--results` for `compare.py`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
PROCESS_TIMEOUT_S = 150
TRACE_HEADER = "time_s,fiber,aa,wavelength_nm"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "PYTHONHASHSEED")


#: The reference's median time on a 2-vCPU Xeon VM, in process and as its
#: own process; normalised times are wall times rescaled to a machine that
#: runs the reference this fast.
REFERENCE_NOMINAL_S = 0.022
PROCESS_REFERENCE_NOMINAL_S = 0.22
#: Monitor windows are too short to bracket one by one: one single-repeat
#: reference sample every this many windows, averaged over the pass.
REFERENCE_EVERY_WINDOWS = 5


class BenchError(Exception):
    """The benchmark cannot run here (e.g. no program source)."""


def inprocess_reference(repeats=5):
    """Median time of reference.py's task in this process, as a multiple of
    its nominal time; the monitor's passes are normalised by it."""
    import reference

    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference.task()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / REFERENCE_NOMINAL_S


def process_reference():
    """Wall time of reference.py as its own process, as a multiple of its
    nominal time; the CLI stages are normalised by it.

    The vCPUs of a shared host drift in speed by up to 1.5x over seconds to
    minutes, and a process-per-stage workload, start-up and imports
    included, follows that drift less than an in-process loop does; a
    process reference follows it the same way.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, str(BENCH / "reference.py")], check=True,
                   timeout=PROCESS_TIMEOUT_S)
    return (time.perf_counter() - start) / PROCESS_REFERENCE_NOMINAL_S


def normalise(wall_s, ref):
    """Wall time rescaled to the nominal machine speed; `ref` is a reference
    time as a multiple of its nominal value."""
    return wall_s / ref


def median(values):
    return statistics.median(values) if values else float("nan")


def sha256_bytes(data):
    return hashlib.sha256(data).hexdigest()


def file_digests(directory):
    return {p.name: sha256_bytes(p.read_bytes())
            for p in sorted(Path(directory).iterdir()) if p.is_file()}


def program_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_program():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fbgvib.cli  # noqa: F401

    return sys.modules["fbgvib"]


# --- running one CLI stage -------------------------------------------------

def run_cli_process(stage, argv, cwd):
    """One `python -m fbgvib.cli` process: wall time, exit code, output."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "fbgvib.cli", *argv], cwd=cwd,
                              env=program_env(), capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        code, out, err = None, "", f"timed out after {PROCESS_TIMEOUT_S} s"
    return {"wall_s": time.perf_counter() - start, "code": code, "stdout": out, "stderr": err}


def cli_inprocess_runner(tracer):
    """Runs `fbgvib.cli.main` in this process, under a `cli.<stage>` span."""
    from fbgvib import cli

    def run(stage, argv, cwd):
        out, err = io.StringIO(), io.StringIO()
        span = tracer.span(f"cli.{stage}") if tracer else contextlib.nullcontext()
        previous = os.getcwd()
        os.chdir(cwd)
        try:
            start = time.perf_counter()
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            wall = time.perf_counter() - start
        finally:
            os.chdir(previous)
        return {"wall_s": wall, "code": code,
                "stdout": out.getvalue(), "stderr": err.getvalue()}

    return run


def run_probe():
    """Fresh interpreter that imports the package; see probe.py."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-X", "importtime", str(BENCH / "probe.py")],
                          cwd=ROOT, env=program_env(), capture_output=True, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise BenchError(f"the program does not import: {last}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "scipy.signal":
            info["scipy_signal_s"] = int(fields[1]) / 1e6
    info["wall_s"] = wall
    return info


# --- workloads -------------------------------------------------------------

class Workload:
    """Defaults shared by the workloads below."""

    #: Whose peak RSS is the program's: CLI children, or this process.
    rss_of = resource.RUSAGE_CHILDREN
    #: How the machine's speed is measured next to the workload's steps.
    reference = staticmethod(process_reference)

    def setup(self, work, seed):
        """Make the run's inputs; returns their sizes."""
        return {}

    def finish(self, work, last_pass, runner):
        """Run-level checks after the timed loop: list of (name, problems)."""
        return []

    def inputs(self, work, last_pass):
        return {}


class CliWorkload(Workload):
    """A pass is a fixed list of CLI stages run one after another."""

    def stages(self, seed, work):
        raise NotImplementedError

    def check(self, stage, stdout, pass_dir):
        return []

    def run_pass(self, work, seed, index, runner, tracer=None, reference=None):
        """Runs each stage through `runner`, which carries any tracer.

        With `reference`, the reference is timed before the first stage and
        after each one; a stage's `ref` is the mean of the two around it.
        """
        pass_dir = work / f"pass{index}"
        pass_dir.mkdir()
        steps = []
        before = reference() if reference else None
        for stage, argv in self.stages(seed, work):
            result = runner(stage, argv, pass_dir)
            ref = None
            if reference:
                after = reference()
                ref, before = 0.5 * (before + after), after
            if result["code"] != 0:
                tail = (result["stderr"].strip().splitlines() or [""])[-1]
                problems = [f"{stage}: exit {result['code']}: {tail}"]
            else:
                problems = [f"{stage}: {p}" for p in self.check(stage, result["stdout"], pass_dir)]
            steps.append({"name": stage, "wall_s": result["wall_s"], "problems": problems,
                          "ref": ref,
                          "stdout_sha256": sha256_bytes(result["stdout"].encode())})
        digests = file_digests(pass_dir)
        digests.update({f"stdout:{s['name']}": s["stdout_sha256"] for s in steps})
        return {"dir": pass_dir, "wall_s": sum(s["wall_s"] for s in steps),
                "steps": steps, "digests": digests}

    def detail(self, passes):
        """Per-stage medians, as measured and normalised, with their sample counts."""
        out = {}
        for name in [s["name"] for s in passes[0]["steps"]]:
            steps = [s for p in passes for s in p["steps"] if s["name"] == name]
            out[f"{name}_s"] = {"value": median([s["wall_s"] for s in steps]), "unit": "s",
                                "n": len(steps)}
            if steps[0]["ref"]:
                out[f"{name}_norm_s"] = {
                    "value": median([normalise(s["wall_s"], s["ref"]) for s in steps]),
                    "unit": "s", "n": len(steps)}
        return out


def _csv_size(path):
    data = Path(path).read_bytes()
    return {"rows": data.count(b"\n") - 1, "bytes": len(data)}


class Bend150Cli(CliWorkload):
    name = "bend150-cli"
    rpm = 120

    def stages(self, seed, work):
        return [
            ("simulate", ["simulate", "--rpm", str(self.rpm), "--duration", "150",
                          "--bend", "pull=75,release=75", "--seed", str(seed),
                          "--out", "bend.csv"]),
            ("analyze", ["analyze", "bend.csv", "--rpm-hint", str(self.rpm),
                         "--out", "spectrum.csv"]),
            ("filter", ["filter", "bend.csv", "--rpm", str(self.rpm),
                        "--save-spec", "cascade.txt", "--out", "clean.csv"]),
            ("shape", ["shape", "clean.csv", "--out", "polyline.csv",
                       "--out-tips", "tips.csv"]),
            ("detect", ["detect", "clean.csv", "--threshold", "0.2",
                        "--out", "events.csv"]),
        ]

    def check(self, stage, stdout, pass_dir):
        lines = stdout.splitlines()
        if stage == "analyze" and "fundamental_hz=2.000000" not in lines:
            return [f"expected fundamental_hz=2.000000, got {lines[1:2]}"]
        if stage == "shape":
            rows = _csv_size(pass_dir / "tips.csv")["rows"]
            if rows != 150000:
                return [f"tips file has {rows} rows, expected 150000"]
        if stage == "detect":
            rows = _csv_size(pass_dir / "events.csv")["rows"]
            if lines != ["events=0"] or rows != 0:
                return [f"expected no events on the filtered trace, got {lines} / {rows} rows"]
        return []

    def finish(self, work, last_pass, runner):
        # The notches must remove the tool line: analysing the filtered trace
        # finds no fundamental (untimed, once per run).
        result = runner("analyze_filtered", ["analyze", "clean.csv", "--rpm-hint", str(self.rpm)],
                        last_pass["dir"])
        problems = []
        if result["code"] != 0:
            problems.append(f"exit {result['code']}")
        elif "fundamental_hz=absent" not in result["stdout"].splitlines():
            problems.append("fundamental still present after filtering")
        return [("analyze-filtered", problems)]

    def inputs(self, work, last_pass):
        return {"trace_csv": _csv_size(last_pass["dir"] / "bend.csv"),
                "filtered_csv": _csv_size(last_pass["dir"] / "clean.csv")}


SWEEP_RATE_HZ = 250.0


def write_sweep_file(directory, rpm, params, seed):
    """One recorded per-rate trace, rpm_<value>.csv, area 0 only.

    The duration follows run_sweep's rule: three periods plus twice the
    shape-removal settle margin must survive the transient discard.
    """
    from fbgvib import filtering, sweep, vib_model

    lowpass = filtering.design_lowpass(sweep.DEFAULT_SHAPE_CUTOFF_HZ, SWEEP_RATE_HZ)
    settle_s = filtering.transient_samples(
        lowpass, n_time_constants=sweep.SETTLE_TIME_CONSTANTS) / SWEEP_RATE_HZ
    needed_s = (3.0 * 60.0 / rpm + 2.0 * settle_s) / (1.0 - sweep.DEFAULT_DISCARD_FRACTION)
    scenario = vib_model.Scenario(rpm=rpm, duration_s=max(10.0, 1.25 * needed_s),
                                  sample_rate_hz=SWEEP_RATE_HZ,
                                  base_wavelength_nm=(1535.3,), harmonic_weights=(1.0,))
    trace = vib_model.simulate(scenario, params, seed=seed)
    rows = [f"{t:.6f},0,0,{w:.9f}"
            for t, w in zip(trace.times().tolist(), trace.channel(0).tolist())]
    text = "\n".join([TRACE_HEADER] + rows) + "\n"
    (Path(directory) / f"rpm_{rpm:.6f}.csv").write_text(text)
    return len(rows), len(text)


def parse_summary(text):
    """(peak rpm, attribution) pairs from `sweep --summary` text."""
    peaks = []
    for line in text.splitlines():
        if line.startswith("peak "):
            rpm = float(line.split()[1])
            tag = line.split(", ")[1]
            peaks.append((rpm, tag))
    return peaks


class SweepPaper(CliWorkload):
    name = "sweep-paper"
    expected = ((24.0, 6.0, "sensor-dominant"), (960.0, 60.0, "manipulator-dominant"))

    def setup(self, work, seed):
        import_program()
        from fbgvib import sweep, vib_model

        ingest = work / "ingest"
        shutil.rmtree(ingest, ignore_errors=True)
        ingest.mkdir()
        params = vib_model.default_params()
        rows = size = 0
        for i, rpm in enumerate(sweep.default_rpm_grid()):
            r, b = write_sweep_file(ingest, rpm, params, seed + i)
            rows, size = rows + r, size + b
        return {"ingest_dir": {"files": len(sweep.default_rpm_grid()), "rows": rows,
                               "bytes": size, "sample_rate_hz": SWEEP_RATE_HZ}}

    def stages(self, seed, work):
        return [
            ("sweep_sim", ["sweep", "--preset", "paper", "--seed", str(seed),
                           "--out", "sweep_sim.csv", "--summary", "summary_sim.txt"]),
            ("sweep_ingest", ["sweep", "--from-dir", str(work / "ingest"),
                              "--out", "sweep_ingest.csv", "--summary", "summary_ingest.txt"]),
        ]

    def check(self, stage, stdout, pass_dir):
        suffix = stage.split("_")[1]
        peaks = parse_summary((pass_dir / f"summary_{suffix}.txt").read_text())
        if len(peaks) != 2:
            return [f"expected 2 peaks, got {peaks}"]
        for (rpm, tag), (centre, tol, want) in zip(peaks, self.expected):
            if abs(rpm - centre) > tol or tag != want:
                return [f"peak {rpm} rpm {tag}, expected {centre}+-{tol} rpm {want}"]
        return []


class MonitorWindows(Workload):
    """In-process online monitor: features, notches and step detection per window."""

    name = "monitor-windows"
    rss_of = resource.RUSAGE_SELF
    reference = staticmethod(inprocess_reference)
    rpm = 240.0
    rate_hz = 1000.0
    duration_s = 300.0
    window_s = 10.0
    stepped_windows = 10
    step_sizes_nm = (0.35, 0.55)
    threshold_nm = 0.2
    detector_window_s = 0.5

    def setup(self, work, seed):
        import numpy as np

        import_program()
        from fbgvib import vib_model

        scenario = vib_model.Scenario(rpm=self.rpm, duration_s=self.duration_s,
                                      sample_rate_hz=self.rate_hz)
        channels = vib_model.simulate(scenario, vib_model.default_params(),
                                      seed=seed).channels.copy()
        # Collision surrogates: one level step in each of a few windows, at a
        # known time and sign, 4 to 6 s into the window; magnitudes alternate
        # below and above twice the detector threshold. Steps near the window
        # centre keep the peak walk's cost, which grows with the step's
        # spectral leakage, nearly the same from seed to seed.
        rng = np.random.default_rng(seed)
        n_windows = int(self.duration_s // self.window_s)
        self.steps = []
        chosen = sorted(rng.choice(n_windows, self.stepped_windows, replace=False))
        for k, w in enumerate(chosen):
            index = int(round((w * self.window_s + rng.uniform(4.0, 6.0)) * self.rate_hz))
            magnitude = self.step_sizes_nm[k % 2] * rng.choice((-1.0, 1.0))
            channels[index:] += magnitude
            self.steps.append((index / self.rate_hz, float(magnitude)))
        self.channels = channels
        self.n_windows = n_windows
        return {"trace": {"samples": channels.shape[0], "channels": channels.shape[1],
                          "bytes": channels.nbytes, "windows": n_windows,
                          "steps": len(self.steps)}}

    def run_pass(self, work, seed, index, runner, tracer=None, reference=None):
        """Every window once; with `reference`, each window's `ref` is the
        mean of reference samples spread through the pass."""
        from fbgvib import events, filtering, spectral

        n = int(self.window_s * self.rate_hz)
        steps, outputs, samples = [], [], []
        misid = split = 0
        for w in range(self.n_windows):
            if reference and w % REFERENCE_EVERY_WINDOWS == 0:
                samples.append(reference(1))
            segment = self.channels[w * n:(w + 1) * n]
            t0 = w * self.window_s
            span = tracer.span("monitor.window") if tracer else contextlib.nullcontext()
            start = time.perf_counter()
            with span:
                features = spectral.identify_features(segment[:, 0], self.rate_hz,
                                                      rpm_hint=self.rpm)
                notch = filtering.design_bandstop(self.rpm / 60.0, sample_rate_hz=self.rate_hz)
                filtered = [filtering.apply_zero_phase(notch, segment[:, i])
                            for i in range(segment.shape[1])]
                report = events.detect_steps(filtered[0], threshold_nm=self.threshold_nm,
                                             window_s=self.detector_window_s,
                                             sample_rate_hz=self.rate_hz, t0=t0)
            wall = time.perf_counter() - start
            problems, window_misid, window_split = self.check_window(t0, features, report)
            misid += window_misid
            split += window_split
            steps.append({"name": "window", "wall_s": wall, "problems": problems,
                          "ref": None})
            outputs.append(repr((features.fundamental_hz, features.harmonics_hz,
                                 [(e.index, e.time_s, e.magnitude_nm, e.direction)
                                  for e in report.events])))
        if reference:
            samples.append(reference(1))
            for step in steps:
                step["ref"] = statistics.fmean(samples)
        return {"wall_s": sum(s["wall_s"] for s in steps), "steps": steps,
                "digests": {"windows": sha256_bytes("\n".join(outputs).encode())},
                "misid_windows": misid, "split_steps": split}

    def check_window(self, t0, features, report):
        """Problems, 1 if a stepped window misreads the fundamental, split steps."""
        inside = [(t, m) for t, m in self.steps if t0 <= t < t0 + self.window_s]
        problems = []
        misid = 0
        if features.fundamental_hz != self.rpm / 60.0:
            if inside:
                misid = 1  # known spectral defect, recorded, not a failure
            else:
                problems.append(f"window at {t0} s: fundamental {features.fundamental_hz}")
        unmatched = list(report.events)
        split = 0
        for t, magnitude in inside:
            direction = "up" if magnitude > 0 else "down"
            hits = [e for e in unmatched if e.direction == direction
                    and 0.0 <= e.time_s - t <= self.detector_window_s]
            unmatched = [e for e in unmatched if e not in hits]
            if not hits or len(hits) > 2:
                problems.append(f"step at {t:.3f} s reported {len(hits)} times")
            elif len(hits) == 2:
                split += 1  # known detector defect, recorded, not a failure
        if unmatched:
            problems.append(f"window at {t0} s: {len(unmatched)} events with no step")
        return problems, misid, split

    def detail(self, passes):
        walls = [s["wall_s"] for p in passes for s in p["steps"]]
        cuts = statistics.quantiles(walls, n=100, method="inclusive")
        return {
            "windows_per_s": {"value": len(walls) / sum(walls), "unit": "windows/s",
                              "n": len(walls)},
            "window_median_ms": {"value": 1e3 * median(walls), "unit": "ms", "n": len(walls)},
            "window_p90_ms": {"value": 1e3 * cuts[89], "unit": "ms",
                              "n": len(walls)},
            "misid_windows_per_pass": {"value": passes[0]["misid_windows"], "unit": "count",
                                       "n": len(passes)},
            "split_steps_per_pass": {"value": passes[0]["split_steps"], "unit": "count",
                                     "n": len(passes)},
        }


WORKLOADS = {w.name: w for w in (Bend150Cli, SweepPaper, MonitorWindows)}


# --- provenance ------------------------------------------------------------

def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def source_sha256():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(probe, seed):
    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "nproc": os.cpu_count(),
        "affinity_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "python": probe["python"],
        "numpy": probe["numpy"],
        "scipy": probe["scipy"],
        "fbgvib": probe["fbgvib"],
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "seed": seed,
    }


# --- the two kinds of run --------------------------------------------------

def timed_run(workload, work, args):
    """Whole passes until `--seconds` elapse, each step normalised by the reference."""
    passes = []
    deadline = time.perf_counter() + args.seconds
    while True:
        passes.append(workload.run_pass(work, args.seed, len(passes), run_cli_process,
                                        reference=workload.reference))
        if time.perf_counter() >= deadline:
            break
    finish = workload.finish(work, passes[-1], run_cli_process)
    rss_kb = resource.getrusage(workload.rss_of).ru_maxrss
    # A pass's normalised time, assembled from each step's median over the
    # passes: steadier than the median of whole passes when passes are few.
    per_step = zip(*[[normalise(s["wall_s"], s["ref"]) for s in p["steps"]] for p in passes])
    metrics = {
        "pipeline_norm_s": {"value": sum(median(list(v)) for v in per_step), "unit": "s"},
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
    }
    detail = workload.detail(passes)
    detail["pipeline_s"] = {"value": median([p["wall_s"] for p in passes]), "unit": "s",
                            "n": len(passes)}
    refs = [s["ref"] for p in passes for s in p["steps"]]
    detail["reference_ratio"] = {"value": median(refs), "unit": "ratio", "n": len(refs)}
    return passes, finish, metrics, detail


#: Functions the layer suite times; each gives the metric `<name>_s`.
SUITE_TIMES = (
    "dataio.parse_trace_csv", "dataio.trace_csv_text", "dataio.atomic_write_text",
    "spectral.fft_forward_n150000", "spectral.fft_forward_n10000", "spectral.find_peaks",
    "spectral.identify_features", "spectral.spectrum_rows", "filtering.design_bandstop",
    "filtering.apply_zero_phase", "shape.wavelength_to_curvature", "shape.reconstruct",
    "shape.tips_for_curvatures", "events.detect_steps", "vib_model.simulate",
    "sweep.run_sweep", "sweep.steady_amplitude", "sweep.ingest_sweep_dir",
    "sweep.analyze_sweep_points",
)

PASS_COUNTS = ("dataio.bytes_read", "dataio.bytes_written", "spectral.local_maxima",
               "spectral.peaks_kept", "filtering.samples_filtered", "events.blocks",
               "events.events_found", "vib_model.samples_generated", "sweep.points")


def traced_run(workload, work, args, probes):
    """In-process replay, untraced then traced, then the layer suite."""
    import_program()
    import tracing

    runner_plain = cli_inprocess_runner(None)
    tracer = tracing.Tracer()
    runner_traced = cli_inprocess_runner(tracer)
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        plain.append(workload.run_pass(work, args.seed, 2 * len(plain), runner_plain))
        restore = tracing.install(tracer)
        try:
            traced.append(workload.run_pass(work, args.seed, 2 * len(traced) + 1,
                                            runner_traced, tracer))
        finally:
            restore()
        if time.perf_counter() >= deadline:
            break
    passes = plain + traced
    finish = workload.finish(work, passes[-1], runner_plain)

    suite_dir = work / "suite"
    sweep_dir = suite_dir / "sweep"
    sweep_dir.mkdir(parents=True)
    from fbgvib import sweep, vib_model

    for i, rpm in enumerate(sweep.default_rpm_grid()[-4:]):
        write_sweep_file(sweep_dir, rpm, vib_model.default_params(), args.seed + i)
    suite = tracing.Tracer()
    restore = tracing.install(suite)
    try:
        suite_values = tracing.layer_suite(suite, str(suite_dir), args.seed, str(sweep_dir))
    finally:
        restore()
    root = next(i for i, span in enumerate(suite.spans) if span[0] == "suite")
    own = suite.self_times_by_name(parent=root)

    metrics = {f"{name}_s": {"value": median(own[name]), "unit": "s"} for name in SUITE_TIMES}
    metrics["dataio.parse_rows_per_s"] = {
        "value": suite_values / median(own["dataio.parse_trace_csv"]), "unit": "rows/s"}
    metrics["import.fbgvib_s"] = {"value": median([p["fbgvib_s"] for p in probes]), "unit": "s"}
    metrics["import.scipy_signal_s"] = {
        "value": median([p["scipy_signal_s"] for p in probes]), "unit": "s"}
    metrics["cli.process_overhead_s"] = {
        "value": median([p["wall_s"] for p in probes]), "unit": "s"}
    for name in PASS_COUNTS:
        metrics[name] = {"value": tracer.counts[name] / len(traced), "unit": "count"}
    metrics["spectral.fundamental_misid_windows"] = {
        "value": median([p.get("misid_windows", 0) for p in passes]), "unit": "count"}
    metrics["events.split_steps"] = {
        "value": median([p.get("split_steps", 0) for p in passes]), "unit": "count"}
    metrics["pipeline.inprocess_s"] = {
        "value": median([p["wall_s"] for p in plain]), "unit": "s"}
    coverage = tracer.coverage(("cli.", "monitor."))
    metrics["trace.coverage"] = {"value": min(c for _, c in coverage), "unit": "share"}
    metrics["trace.overhead_s"] = {
        "value": median([p["wall_s"] for p in traced]) - median([p["wall_s"] for p in plain]),
        "unit": "s"}

    detail = {}
    for name in sorted({n for n, _ in coverage}):
        shares = [c for n, c in coverage if n == name]
        detail[f"trace.coverage.{name}"] = {"value": median(shares), "unit": "share",
                                            "n": len(shares)}
    for name, walls in _step_walls(plain).items():
        detail[f"{name}_inprocess_s"] = {"value": median(walls), "unit": "s", "n": len(walls)}
    per_pass = {}
    for name, dur, own_s, _ in tracer.self_times():
        per_pass[name] = per_pass.get(name, 0.0) + own_s / len(traced)
    for name, value in sorted(per_pass.items()):
        detail[f"self_per_pass.{name}_s"] = {"value": value, "unit": "s", "n": len(traced)}
    detail["dataio.rows_parsed"] = {"value": tracer.counts["dataio.rows_parsed"] / len(traced),
                                    "unit": "count", "n": len(traced)}
    return passes, finish, metrics, detail


def _step_walls(passes):
    walls = {}
    for p in passes:
        for s in p["steps"]:
            walls.setdefault(f"cli.{s['name']}" if s["name"] != "window" else "monitor.window",
                             []).append(s["wall_s"])
    return walls


# --- main ------------------------------------------------------------------

def measure(workload, work, args):
    probes, setup_walls, setup_norms = [], [], []
    inputs = {}
    # Each set-up is normalised like a CLI stage, by the references around it.
    before = workload.reference()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        probes.append(run_probe())
        inputs = workload.setup(work, args.seed)
        setup_walls.append(time.perf_counter() - start)
        after = workload.reference()
        setup_norms.append(normalise(setup_walls[-1], 0.5 * (before + after)))
        before = after

    if args.trace:
        passes, finish, metrics, detail = traced_run(workload, work, args, probes)
    else:
        passes, finish, metrics, detail = timed_run(workload, work, args)
        metrics["setup_s"] = {"value": median(setup_norms), "unit": "s"}
        detail["setup_wall_s"] = {"value": median(setup_walls), "unit": "s",
                                  "n": len(setup_walls)}

    problems = [p for ps in passes for s in ps["steps"] for p in s["problems"]]
    failed = sum(1 for ps in passes for s in ps["steps"] if s["problems"])
    attempted = sum(len(ps["steps"]) for ps in passes)
    for i, ps in enumerate(passes[1:], start=1):
        attempted += 1
        if ps["digests"] != passes[0]["digests"]:
            failed += 1
            changed = sorted(k for k in ps["digests"]
                             if ps["digests"][k] != passes[0]["digests"].get(k))
            problems.append(f"pass {i} output differs from pass 0: {changed}")
    for name, check_problems in finish:
        attempted += 1
        failed += bool(check_problems)
        problems += [f"{name}: {p}" for p in check_problems]

    inputs.update(workload.inputs(work, passes[-1]))
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics, "detail": detail,
        "passes": len(passes), "pass_walls_s": [p["wall_s"] for p in passes],
        "setup_walls_s": setup_walls, "problems": problems[:50],
        "digests": passes[0]["digests"], "inputs": inputs,
        "provenance": provenance(probes[0], args.seed),
    }
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(BENCH / "results" / "results.jsonl"),
                        help="JSON-lines file the full record is appended to")
    args = parser.parse_args(argv)
    # numpy generators and the CLI's --seed take non-negative seeds.
    args.seed %= 2 ** 31

    if not (SRC / "fbgvib" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'fbgvib'}", file=sys.stderr)
        return 2
    # One caller on one CPU: the program's processes inherit this affinity,
    # so each stage runs on the CPU whose speed the reference just measured.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        record = measure(WORKLOADS[args.workload](), work, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = Path(args.results)
    results.parent.mkdir(parents=True, exist_ok=True)
    with results.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    for problem in record["problems"]:
        print(f"problem: {problem}")
    for section in ("metrics", "detail"):
        for name, m in sorted(record[section].items()):
            n = f"  (n={m['n']})" if "n" in m else ""
            print(f"{section[:6]:6s} {name:40s} {m['value']:.6g} {m['unit']}{n}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                                  for k, v in record["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
