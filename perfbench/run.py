"""End-to-end and per-layer benchmark of the ``slepmoments`` CLI.

    python3 perfbench/run.py --workload {rotation,sweep,batch} --seed N \\
        --seconds S --trace {0,1} [--smoke] [--record FILE]

Run it from the root of a source checkout; the package is taken from ./src.
Each workload is a closed loop with one CLI process in flight at a time: the
benchmark is the only client and starts the next command when the previous
one has exited, which suits a 2-core machine. Every command is a fresh
interpreter, so it pays start-up and the package import, as a researcher or a
script calling ``slepmoments`` does.

--seconds fixes the amount of work, not a deadline: a run makes
round(seconds / nominal pass time) passes of the workload's command script,
so a faster program finishes the same work sooner and wall_s compares
directly between commits. wall_s and cpu_s are medians over the passes, so a
stall of the machine moves one pass and not the run's figure. The seed reaches only ``synth``, ``--seed`` and the
input generation. Every output is checked and its SHA-256 digest recorded.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 runs
untraced and traced passes alternately (see tracer.py) and reports the
per-layer metrics. The last line of standard output is one JSON object; the
full record (provenance, digests, every figure computed) is appended to
--record as one JSON line, which compare.py reads.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

import measure

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
CLI = "import sys; from slepmoments.cli import main; main()"
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
CALL_TIMEOUT_S = 90.0
PROBE_SIZE = 128  # the acceptance suite's stability image size
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class Call:
    """One CLI invocation: what it runs, what it writes, how it went."""

    argv: list[str]
    outputs: list[Path]
    frames: int = 0
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    failures: list[str] = field(default_factory=list)

    @property
    def role(self) -> str:
        return " ".join(a for a in self.argv[:2] if not a.startswith("-"))


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd: list[str]) -> tuple[int, float, float, float, str]:
    """Run one child to exit: (exit code, wall s, user+sys CPU s, max RSS MB, stderr)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        err = proc.stderr.read().decode(errors="replace")
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stderr.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, err


def invoke(call: Call, trace: Path | None = None) -> None:
    if trace is None:
        cmd = [sys.executable, "-c", CLI, *call.argv]
    else:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(trace), *call.argv]
    rc, call.wall, call.cpu, call.rss_mb, err = spawn(cmd)
    if rc != 0:
        last = err.strip().splitlines()[-1] if err.strip() else ""
        call.failures.append(f"{call.role} exited {rc}: {last}")


# --- output readers and checks -------------------------------------------------


def read_table(call: Call, path: Path):
    """Rows and std row of a stability CSV, or None after recording a failure."""
    try:
        rows = list(csv.reader(path.read_text().splitlines()))
        values = np.array([[float(x) for x in r[1:]] for r in rows[1:-1]])
        std = np.array([float(x) for x in rows[-1][1:]])
        if rows[-1][0] != "std" or values.ndim != 2 or values.shape[0] < 2:
            raise ValueError("unexpected table layout")
    except (OSError, ValueError, IndexError) as exc:
        call.failures.append(f"{path.name}: unreadable stability table ({exc})")
        return None
    if not np.allclose(std, values.std(axis=0), rtol=1e-9, atol=0.0):
        call.failures.append(f"{path.name}: std row disagrees with the table rows")
    return values, std


def check_stability(clean: Call, noisy: Call, gain_bound: float | None) -> dict:
    """Criteria 5 and 6 of the acceptance suite on a clean/noisy table pair.

    The noise-gain bound (noise raises each column's std by at most 3x) is
    only applied where ``gain_bound`` is given: at the acceptance protocol's
    128-pixel, 8-angle configuration. At 256 pixels and 72 angles the clean
    std is ~0.1% of the mean, so any 30 dB noise multiplies it far beyond 3x
    while the noisy std stays under 1% of the mean.
    """
    a, b = read_table(clean, clean.outputs[0]), read_table(noisy, noisy.outputs[0])
    if a is None or b is None:
        return {"clean_rel_std": math.nan}
    (cv, cs), (nv, ns) = a, b
    clean_ratio = float((cs / cv.mean(axis=0)).max())
    noisy_ratio = float((ns / nv.mean(axis=0)).max())
    gain = float(((ns - cs) / cs).max())
    if not clean_ratio <= 0.10:
        clean.failures.append(f"clean std/mean {clean_ratio:.4g} > 0.10")
    if not noisy_ratio <= 0.15:
        noisy.failures.append(f"noisy std/mean {noisy_ratio:.4g} > 0.15")
    if gain_bound is not None and not gain <= gain_bound:
        noisy.failures.append(f"noise raises a column std by {gain:.3g}x > {gain_bound}x")
    return {"clean_rel_std": clean_ratio, "noisy_rel_std": noisy_ratio, "noise_std_gain": gain}


# --- workloads ---------------------------------------------------------------------


class Workload:
    """A command script run once per pass, its inputs and its output checks."""

    name = ""
    pass_seconds = 1.0  # nominal pass time on a 2-core x86 box; sets passes per run

    def __init__(self, seed: int, smoke: bool):
        self.seed, self.smoke = seed, smoke

    def inputs(self) -> dict:
        """Spec for inputs.py: pattern sizes to render and synth arguments."""
        raise NotImplementedError

    def sizes(self) -> dict:
        raise NotImplementedError

    def calls(self, inputs: Path, out: Path, p: int) -> list[Call]:
        """The command script of pass ``p``, writing under ``out``."""
        raise NotImplementedError

    def check(self, calls: list[Call]) -> dict:
        raise NotImplementedError


class Rotation(Workload):
    """Fine-angle rotation study on the bundled pattern: rotate-test and
    noise-test alternate, 72 angles on a 256x512 grid, built-in basis."""

    name = "rotation"
    pass_seconds = 7.8

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.size, step, self.grid = (128, 45, (64, 128)) if smoke else (256, 5, (256, 512))
        self.angles = list(range(0, 360, step))

    def inputs(self):
        return {"patterns": sorted({self.size, PROBE_SIZE}), "synth": []}

    def sizes(self):
        return {"image": [self.size, self.size], "angles": len(self.angles),
                "grid": list(self.grid), "basis": "built-in"}

    def calls(self, inputs, out, p):
        common = ["--image", str(inputs / f"pattern{self.size}.pgm"),
                  "--angles", ",".join(map(str, self.angles)),
                  "--radial", str(self.grid[0]), "--angular", str(self.grid[1])]
        n = len(self.angles)
        return [
            Call(["rotate-test", *common, "--out", str(out / "clean.csv")],
                 [out / "clean.csv"], frames=n),
            Call(["noise-test", *common, "--seed", str(self.seed), "--out", str(out / "noisy.csv")],
                 [out / "noisy.csv"], frames=n),
        ]

    def check(self, calls):
        return check_stability(calls[0], calls[1], gain_bound=None)


class Sweep(Workload):
    """classify --data-dir over a synth tree: the classifier and the dataset
    plumbing do real work, on hundreds of small images at 64x128."""

    name = "sweep"
    pass_seconds = 2.5

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.classes, self.per_class, self.rotations = (3, 8, 1) if smoke else (8, 12, 4)
        self.options = ["--repeats", "4", "--epochs", "100"] if smoke else []

    def inputs(self):
        return {"patterns": [PROBE_SIZE],
                "synth": ["--classes", str(self.classes), "--per-class", str(self.per_class),
                          "--rotations", str(self.rotations), "--seed", str(self.seed)]}

    def sizes(self):
        return {"classes": self.classes, "per_class": self.per_class,
                "rotations": self.rotations, "images": self.images, "image": [96, 96],
                "grid": [64, 128], "classify_options": self.options}

    @property
    def images(self) -> int:
        return self.classes * self.per_class * self.rotations

    def calls(self, inputs, out, p):
        return [Call(["classify", "--data-dir", str(inputs / "corpus"), "--seed", str(self.seed),
                      *self.options, "--out", str(out / "accuracy.csv")],
                     [out / "accuracy.csv"], frames=self.images)]

    def check(self, calls):
        call = calls[0]
        try:
            rows = list(csv.DictReader(call.outputs[0].read_text().splitlines()))
            means = [float(r["mean_accuracy"]) for r in rows]
        except (OSError, ValueError, KeyError) as exc:
            call.failures.append(f"accuracy.csv unreadable ({exc})")
            return {}
        if not means or not means[-1] >= 0.85:
            call.failures.append(f"accuracy at the top fraction {means[-1:]} < 0.85")
        if any(b < a - 0.02 for a, b in zip(means, means[1:])):
            call.failures.append(f"accuracy falls by more than 0.02 along {means}")
        return {"accuracy": means}


class Batch(Workload):
    """A scripted per-image pipeline: one dpss gen of a large basis, then
    moments compute, invariants and reconstruct per image, each a fresh process."""

    name = "batch"
    pass_seconds = 6.0

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        if smoke:
            self.nwk, self.per_class, self.size, self.ml, self.grid = (256, 0.05, 20), 1, 64, (10, 8), (32, 64)
        else:
            self.nwk, self.per_class, self.size, self.ml, self.grid = (4096, 0.01, 80), 4, 128, (20, 16), (128, 256)

    def inputs(self):
        return {"patterns": [PROBE_SIZE],
                "synth": ["--classes", "2", "--per-class", str(self.per_class),
                          "--size", str(self.size), "--seed", str(self.seed)]}

    def sizes(self):
        return {"basis": dict(zip("nwk", self.nwk)), "images": 2 * self.per_class,
                "images_per_pass": 1, "image": [self.size, self.size], "orders": list(self.ml), "grid": list(self.grid)}

    def calls(self, inputs, out, p):
        n, w, k = self.nwk
        basis = out / "basis.json"
        grid = ["--radial", str(self.grid[0]), "--angular", str(self.grid[1])]
        images = sorted((inputs / "corpus").rglob("*.pgm"))
        j = p % len(images)  # one image per pass; outputs are named by image
        mom, phi, rec = out / f"moments{j}.json", out / f"phi{j}.csv", out / f"rec{j}.json"
        return [
            Call(["dpss", "gen", "--n", str(n), "--w", repr(w), "--k", str(k),
                  "--out", str(basis)], [basis]),
            Call(["moments", "compute", "--image", str(images[j]), "--basis", str(basis),
                  "--m", str(self.ml[0]), "--l", str(self.ml[1]), *grid, "--out", str(mom)],
                 [mom], frames=1),
            Call(["invariants", "--moments", str(mom), "--out", str(phi)], [phi]),
            Call(["reconstruct", "--moments", str(mom), "--basis", str(basis), *grid,
                  "--out", str(rec)], [rec]),
        ]

    def check(self, calls):
        gen, rest = calls[0], calls[1:]
        worst = {"orthonormality": self._check_basis(gen), "invariants": 0.0, "imag_residual": 0.0}
        for mom, phi, rec in zip(rest[0::3], rest[1::3], rest[2::3]):
            worst["imag_residual"] = max(worst["imag_residual"], self._check_reconstruction(rec))
            try:
                doc = json.loads(mom.outputs[0].read_text())
                moduli = {(e["m"], e["n"]): math.hypot(e["re"], e["im"]) for e in doc["moments"]}
                rows = list(csv.reader(phi.outputs[0].read_text().splitlines()))
                got = dict(zip(rows[0], map(float, rows[1])))
            except (OSError, ValueError, KeyError, IndexError) as exc:
                phi.failures.append(f"moment or invariant file unreadable ({exc})")
                continue
            want = {f"phi_{m}_{n}": v for (m, n), v in moduli.items() if n >= 0}
            if set(want) != set(got):
                phi.failures.append("invariant columns differ from the moment orders")
                continue
            err = max(abs(got[c] - want[c]) / max(want[c], 1e-300) for c in want)
            worst["invariants"] = max(worst["invariants"], err)
            if err > 1e-12:
                phi.failures.append(f"invariants differ from the moment moduli by {err:.2e}")
        return worst

    def _check_basis(self, gen: Call) -> float:
        n, w, k = self.nwk
        try:
            doc = json.loads(gen.outputs[0].read_text())
            params = (doc["n"], doc["w"], doc["k"])
            seqs = np.asarray(doc["sequences"], dtype=float)
            eig = np.asarray(doc["eigenvalues"], dtype=float)
        except (OSError, ValueError, KeyError) as exc:
            gen.failures.append(f"basis unreadable ({exc})")
            return math.nan
        if params != (n, w, k) or seqs.shape != (k, n) or eig.shape != (k,):
            gen.failures.append("basis parameters or shapes differ from the request")
            return math.nan
        orth = float(np.abs(seqs @ seqs.T - np.eye(k)).max())
        if not orth <= 1e-10:
            gen.failures.append(f"basis read back from JSON is not orthonormal ({orth:.2e})")
        if not (np.all(np.diff(eig) < 0) and np.all((eig > 0) & (eig < 1))):
            gen.failures.append("eigenvalues are not strictly decreasing in (0, 1)")
        return orth

    def _check_reconstruction(self, rec: Call) -> float:
        try:
            doc = json.loads(rec.outputs[0].read_text())
            grid = (doc["n_radial"], doc["n_angular"])
            samples = np.asarray(doc["samples"], dtype=float)
            residual = float(doc["imag_residual"])
        except (OSError, ValueError, KeyError) as exc:
            rec.failures.append(f"reconstruction unreadable ({exc})")
            return math.nan
        if samples.shape != self.grid or grid != self.grid:
            rec.failures.append(f"reconstruction grid {samples.shape} != {self.grid}")
        scale = float(np.abs(samples).max()) if samples.size else 0.0
        if not residual <= 1e-9 * scale:
            rec.failures.append(f"imag_residual {residual:.2e} exceeds 1e-9 of max |sample| {scale:.2e}")
        return residual / scale if scale else math.nan


WORKLOADS = {w.name: w for w in (Rotation, Sweep, Batch)}


def probe_calls(inputs: Path, out: Path, seed: int) -> list[Call]:
    """The acceptance suite's stability protocol (CLI defaults: 8 angles, 10
    columns, 128x256 grid, built-in basis) on the 128-pixel pattern."""
    image = str(inputs / f"pattern{PROBE_SIZE}.pgm")
    return [Call(["rotate-test", "--image", image, "--out", str(out / "clean.csv")],
                 [out / "clean.csv"]),
            Call(["noise-test", "--image", image, "--seed", str(seed),
                  "--out", str(out / "noisy.csv")], [out / "noisy.csv"])]


# --- digests and provenance ------------------------------------------------------


def record_digests(digests: dict, producers: dict, key: str, call: Call, path: Path) -> None:
    """Record one output's digest; a different digest under the same key is a failure."""
    try:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        call.failures.append(f"{call.role} wrote no {path.name}")
        return
    if key in digests and digests[key] != digest:
        call.failures.append(f"{key} differs between runs of the same inputs")
    digests.setdefault(key, digest)
    producers.setdefault(key, call)


def check_against_stored(wl: Workload, src_digest: str, digests: dict, producers: dict) -> None:
    """Outputs of the same code on the same seed must match earlier runs byte for byte."""
    config = json.dumps([src_digest, wl.name, wl.seed, wl.inputs(), wl.sizes()], sort_keys=True)
    store = WORK / "digests" / f"{hashlib.sha256(config.encode()).hexdigest()[:24]}.json"
    if store.exists():
        earlier = json.loads(store.read_text())
        for key, digest in digests.items():
            if key in earlier and earlier[key] != digest:
                producers[key].failures.append(f"{key} differs from an earlier run of this code")
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(digests, indent=1, sort_keys=True))


def fold_inputs(digests: dict) -> dict:
    """Output digests as recorded, with the input files folded into one digest."""
    inputs = "".join(f"{k} {d}\n" for k, d in sorted(digests.items()) if k.startswith("inputs/"))
    out = {k: d for k, d in digests.items() if not k.startswith("inputs/")}
    out["inputs"] = hashlib.sha256(inputs.encode()).hexdigest()
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT.resolve():
        return None  # not a checkout of its own, or inside some other repository
    return lines[1]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(wl: Workload, src_digest: str) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": git_sha(),
        "source_sha256": src_digest,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "seed": wl.seed,
        "smoke": wl.smoke,
        "inputs": wl.sizes(),
    }


# --- per-layer figures -----------------------------------------------------------


def layer_figures(traces: list[Path], passes: int) -> dict:
    """Per-pass calls, total and self seconds of every wrapped function, plus
    the counts recorded next to spans and per-module self time."""
    stats = defaultdict(lambda: [0, 0.0, 0.0])
    counts = dict.fromkeys(("imaging.to_polar.samples", "classifier.epochs"), 0.0)
    rb_keys = 0
    for path in traces:
        doc = json.loads(path.read_text())
        spans = doc["spans"]
        for name in doc["names"]:
            stats[name]  # functions never called report zero
        selfs = measure.self_times([(s[1], s[2], s[3]) for s in spans])
        keys = set()
        for (name, t0, t1, _, extra), self_s in zip(spans, selfs):
            st = stats[name]
            st[0] += 1
            st[1] += t1 - t0
            st[2] += self_s
            if name == "imaging.to_polar":
                counts["imaging.to_polar.samples"] += extra
            elif name == "classifier.train_classifier":
                counts["classifier.epochs"] += extra
            elif name == "dpss.radial_basis":
                keys.add(extra)
        rb_keys += len(keys)
    out = {k: v / passes for k, v in counts.items()}
    modules = defaultdict(float)
    for name, (calls, total, self_s) in stats.items():
        out[f"{name}.calls"] = calls / passes
        out[f"{name}.total_s"] = total / passes
        out[f"{name}.self_s"] = self_s / passes
        modules[name.split(".")[0]] += self_s / passes
    for module, self_s in modules.items():
        out[f"{module}.self_s"] = self_s
    rb_calls = stats["dpss.radial_basis"][0]
    out["dpss.radial_basis.distinct_ratio"] = rb_keys / rb_calls if rb_calls else 0.0
    return out


def import_figures() -> dict:
    """Cold ``import slepmoments`` in fresh interpreters, and the numpy and
    scipy shares of it from ``python -X importtime``."""
    code = ("import time; t = time.perf_counter(); import slepmoments; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                             capture_output=True, text=True, timeout=CALL_TIMEOUT_S, check=True)
        times.append(float(out.stdout))
    log = subprocess.run([sys.executable, "-X", "importtime", "-c", "import slepmoments"],
                         cwd=ROOT, env=child_env(), capture_output=True, text=True,
                         timeout=CALL_TIMEOUT_S, check=True).stderr
    return {"cli.import_s": statistics.median(times),
            "cli.import.numpy_s": measure.import_seconds(log, "numpy"),
            "cli.import.scipy_s": measure.import_seconds(log, "scipy")}


# --- the run -------------------------------------------------------------------------


def setup(wl: Workload, work: Path, all_calls: list[Call], digests: dict,
          producers: dict) -> tuple[Path, float]:
    """Write the inputs SETUP_REPEATS times; returns the first copy and the
    median time. Every copy must be byte-identical to the first."""
    spec = json.dumps(wl.inputs())
    times = []
    for rep in range(SETUP_REPEATS):
        target = work / f"inputs{rep}"
        call = Call(["inputs"], [])
        rc, call.wall, call.cpu, call.rss_mb, err = spawn(
            [sys.executable, str(HERE / "inputs.py"), str(target), spec])
        all_calls.append(call)
        if rc != 0:
            sys.exit(f"perfbench: writing the {wl.name} inputs failed: {err.strip()[-500:]}")
        for path in sorted(p for p in target.rglob("*") if p.is_file()):
            record_digests(digests, producers, f"inputs/{path.relative_to(target)}", call, path)
        times.append(call.wall)
    return work / "inputs0", statistics.median(times)


def run(args) -> dict:
    wl = WORKLOADS[args.workload](args.seed, args.smoke)
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = decl["per_layer"] if args.trace else decl["end_to_end"]
    src_digest = source_digest()
    work = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        all_calls: list[Call] = []
        digests, producers = {}, {}
        inputs, setup_s = setup(wl, work, all_calls, digests, producers)

        passes = max(1, round(args.seconds / wl.pass_seconds))
        kinds = [False] * passes if not args.trace else [False, True] * max(1, passes // 2)
        timed, walls, traces, traced_process_s = [], {False: [], True: []}, [], 0.0
        for p, traced in enumerate(kinds):
            out = work / f"pass{p}"
            out.mkdir()
            calls = wl.calls(inputs, out, p)
            t0 = time.perf_counter()
            for i, call in enumerate(calls):
                trace = out / f"trace{i}.json" if traced else None
                invoke(call, trace)
                if trace is not None and trace.exists():
                    traces.append(trace)
            walls[traced].append(time.perf_counter() - t0)
            traced_process_s += sum(c.wall for c in calls) if traced else 0.0
            timed.append(calls)

        details = [wl.check(calls) for calls in timed]
        for calls in timed:
            for call in calls:
                for path in call.outputs:
                    record_digests(digests, producers, f"pass/{path.name}", call, path)

        probe = probe_calls(inputs, work / "probe", args.seed)
        (work / "probe").mkdir()
        for call in probe:
            invoke(call)
        probe_detail = check_stability(probe[0], probe[1], gain_bound=3.0)
        for call in probe:
            record_digests(digests, producers, f"probe/{call.outputs[0].name}", call, call.outputs[0])

        check_against_stored(wl, src_digest, digests, producers)

        flat = [c for calls in timed for c in calls]
        all_calls += flat + probe
        failed = [c for c in all_calls if c.failures]
        figures = {"setup_s": setup_s}
        tail_info = None
        if args.trace:
            figures.update(import_figures())
            k = kinds.count(True)
            figures.update(layer_figures(traces, k))
            figures["trace.overhead_s"] = sum(walls[True]) / k - sum(walls[False]) / len(walls[False])
            figures["trace.process_s"] = traced_process_s / k
            figures["trace.outside_run_s"] = figures["trace.process_s"] - figures["cli.run.total_s"]
            figures["cli.out_bytes"] = sum(p.stat().st_size for c in flat for p in c.outputs
                                           if p.exists()) / len(kinds)
        else:
            # per-pass medians: a stall or a slow stretch of the machine
            # lands in one pass and does not move the run's figure
            wall = statistics.median(walls[False])
            tail, pct, beyond = measure.tail([c.wall for c in flat])
            if wl.name == "rotation":
                invariance = max(d["clean_rel_std"] for d in details)
            else:
                invariance = probe_detail["clean_rel_std"]
            figures.update({
                "wall_s": wall,
                "wall_total_s": sum(walls[False]),
                "cmd_p50_s": statistics.median(c.wall for c in flat),
                "cmd_tail_s": tail,
                "cmd_max_s": max(c.wall for c in flat),
                "frames_per_s": sum(c.frames for c in timed[0]) / wall,
                "cpu_s": statistics.median(sum(c.cpu for c in calls) for calls in timed),
                "peak_rss_mb": max(c.rss_mb for c in flat),
                "success_frac": 1.0 - len(failed) / len(all_calls),
                "failed_frac": len(failed) / len(all_calls),
                "invariance_rel_std": invariance,
            })
            tail_info = {"percentile": pct, "samples": len(flat), "beyond": beyond}

        missing = [m["name"] for m in declared if m["name"] not in figures]
        if missing:
            sys.exit(f"perfbench: BENCHMARK.json names metrics this run does not compute: {missing}")
        return {
            "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "passes": len(kinds), "time": time.time(),
            "provenance": provenance(wl, src_digest),
            "attempted": len(all_calls), "failed": len(failed),
            "failures": [f for c in failed for f in c.failures][:50],
            "tail": tail_info,
            "checks": {"passes": details, "probe": probe_detail},
            "calls": [[c.role, c.wall, c.cpu] for c in flat],
            "digests": fold_inputs(digests),
            "figures": figures,
            "metrics": {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
                        for m in declared},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(result: dict) -> None:
    print(f"perfbench {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"passes={result['passes']} attempted={result['attempted']} failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    if result["tail"]:
        print(f"  {'failed_frac':<40} {result['figures']['failed_frac']:>14.6g} ratio")
        t = result["tail"]
        note = "" if t["beyond"] >= 10 else " (too few samples for a tail: the median)"
        print(f"  cmd_tail_s is p{t['percentile']:.1f} of {t['samples']} calls, "
              f"{t['beyond']} beyond{note}")
    else:
        figs = result["figures"]
        wall = figs["trace.process_s"]
        shares = {m: figs.get(f"{m}.self_s", 0.0) / wall for m in
                  ("cli", "dpss", "imaging", "moments", "classifier", "harness")}
        shares["outside cli.run (start-up, import)"] = figs.get("trace.outside_run_s", 0.0) / wall
        print("  self-time shares of traced process wall: " +
              ", ".join(f"{m} {s:.1%}" for m, s in shares.items()))
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    for key, digest in sorted(result["digests"].items()):
        print(f"  sha256 {digest} {key}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs for the self-tests; figures are not comparable")
    parser.add_argument("--record", type=Path, default=WORK / "results.jsonl",
                        help="JSON-lines file the full record is appended to")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "slepmoments" / "cli.py").is_file():
        print("perfbench: run from the root of a slepmoments checkout (no src/slepmoments)",
              file=sys.stderr)
        return 2
    result = run(args)
    report(result)
    args.record.parent.mkdir(parents=True, exist_ok=True)
    with args.record.open("a") as fh:
        fh.write(json.dumps({k: v for k, v in result.items() if k != "metrics"}) + "\n")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
